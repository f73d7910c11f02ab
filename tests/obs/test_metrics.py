"""Unit tests for the metrics instruments and registries."""

import pytest

from repro.errors import ObservabilityError
from repro.obs.export import to_prometheus_text
from repro.obs.metrics import (
    NULL_INSTRUMENT,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
)


class TestCounter:
    def test_starts_at_zero_and_increments(self):
        counter = Counter("c", "help")
        assert counter.value == 0.0
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5

    def test_negative_increment_rejected(self):
        counter = Counter("c", "")
        with pytest.raises(ObservabilityError):
            counter.inc(-1)

    def test_labeled_children_are_cached(self):
        counter = Counter("c", "", ("outcome",))
        child = counter.labels("ok")
        child.inc()
        assert counter.labels("ok") is child
        assert counter.labels("ok").value == 1.0
        assert counter.labels("bad").value == 0.0

    def test_label_arity_enforced(self):
        counter = Counter("c", "", ("a", "b"))
        with pytest.raises(ObservabilityError):
            counter.labels("only-one")

    def test_snapshot_labeled(self):
        counter = Counter("c", "h", ("outcome",))
        counter.labels("ok").inc(2)
        counter.labels("bad").inc()
        snap = counter.snapshot()
        assert snap["type"] == "counter"
        assert {
            (tuple(s["labels"].items()), s["value"]) for s in snap["samples"]
        } == {((("outcome", "bad"),), 1.0), ((("outcome", "ok"),), 2.0)}


class TestGauge:
    def test_moves_both_directions(self):
        gauge = Gauge("g", "")
        gauge.inc(5)
        gauge.dec(2)
        gauge.set(10)
        assert gauge.value == 10.0

    def test_snapshot_unlabeled(self):
        gauge = Gauge("g", "h")
        gauge.set(4)
        assert gauge.snapshot()["samples"] == [{"labels": {}, "value": 4.0}]


class TestHistogram:
    def test_observe_accumulates(self):
        hist = Histogram("h", "", buckets=(1.0, 10.0))
        for value in (0.5, 5.0, 50.0):
            hist.observe(value)
        assert hist.count == 3
        assert hist.sum == 55.5

    def test_snapshot_buckets_are_cumulative(self):
        hist = Histogram("h", "", buckets=(1.0, 10.0))
        for value in (0.5, 0.6, 5.0, 50.0):
            hist.observe(value)
        [sample] = hist.snapshot()["samples"]
        assert sample["buckets"] == [
            {"le": 1.0, "count": 2},
            {"le": 10.0, "count": 3},
        ]
        assert sample["count"] == 4  # the implicit +Inf bucket

    def test_boundary_value_falls_in_its_bucket(self):
        # Prometheus buckets are upper-inclusive: observe(le) counts.
        hist = Histogram("h", "", buckets=(1.0, 10.0))
        hist.observe(1.0)
        [sample] = hist.snapshot()["samples"]
        assert sample["buckets"][0]["count"] == 1

    def test_unsorted_buckets_rejected(self):
        with pytest.raises(ObservabilityError):
            Histogram("h", "", buckets=(10.0, 1.0))

    def test_quantile_interpolates_within_buckets(self):
        histogram = Histogram(buckets=(1.0, 2.0, 4.0))
        for value in (0.5, 1.5, 1.5, 3.0):
            histogram.observe(value)
        # p50: target 2.0 of 4 observations -> upper edge of (1, 2] bucket
        assert histogram.quantile(0.5) == pytest.approx(1.5, abs=0.51)
        assert histogram.quantile(0.0) == pytest.approx(0.0, abs=1.01)
        # p100 lands in the (2, 4] bucket
        assert 2.0 <= histogram.quantile(1.0) <= 4.0
        # monotone in q
        quantiles = [histogram.quantile(q / 10) for q in range(11)]
        assert quantiles == sorted(quantiles)

    def test_quantile_edge_cases(self):
        histogram = Histogram(buckets=(1.0, 2.0))
        assert histogram.quantile(0.99) == 0.0  # empty
        histogram.observe(10.0)  # overflow bucket only
        assert histogram.quantile(0.5) == 2.0  # clamps to last finite edge
        with pytest.raises(ObservabilityError):
            histogram.quantile(1.5)

    def test_quantile_tracks_known_distribution(self):
        # exponential latency buckets: 0.2 ms to ~28 s
        histogram = Histogram(buckets=tuple(0.0002 * 1.5**k for k in range(30)))
        for i in range(1000):
            histogram.observe(0.001 + (i % 100) * 0.0001)  # 1ms..11ms uniform
        p50 = histogram.quantile(0.50)
        p99 = histogram.quantile(0.99)
        assert 0.004 < p50 < 0.009  # around 6ms
        assert 0.009 < p99 < 0.016  # near the top


class TestRegistry:
    def test_idempotent_create(self):
        registry = MetricsRegistry()
        first = registry.counter("x", "help")
        assert registry.counter("x", "other help") is first

    def test_kind_mismatch_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x", "")
        with pytest.raises(ObservabilityError):
            registry.gauge("x", "")

    def test_label_mismatch_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x", "", labels=("a",))
        with pytest.raises(ObservabilityError):
            registry.counter("x", "", labels=("b",))

    def test_collect_sorted_by_name(self):
        registry = MetricsRegistry()
        registry.counter("zeta", "")
        registry.gauge("alpha", "")
        assert [f["name"] for f in registry.collect()] == ["alpha", "zeta"]


class TestNullRegistry:
    def test_everything_is_the_shared_null_instrument(self):
        registry = NullRegistry()
        assert registry.enabled is False
        counter = registry.counter("c", "", labels=("a",))
        assert counter is NULL_INSTRUMENT
        assert registry.gauge("g", "") is NULL_INSTRUMENT
        assert registry.histogram("h", "") is NULL_INSTRUMENT
        # labels() with any arity returns the instrument itself.
        assert counter.labels("x", "y", "z") is counter

    def test_mutators_are_no_ops(self):
        instrument = NullRegistry().counter("c", "")
        instrument.inc()
        instrument.dec()
        instrument.set(5)
        instrument.observe(1.0)
        assert instrument.value == 0.0
        assert instrument.count == 0
        assert instrument.sum == 0.0

    def test_collect_empty(self):
        assert NullRegistry().collect() == []


class TestPrometheusText:
    def test_counter_and_gauge_rendering(self):
        registry = MetricsRegistry()
        registry.counter("jobs_total", "Jobs", labels=("state",)).labels(
            "done"
        ).inc(3)
        registry.gauge("depth", "Queue depth").set(7)
        text = to_prometheus_text(registry)
        assert "# TYPE jobs_total counter" in text
        assert 'jobs_total{state="done"} 3' in text
        assert "depth 7" in text

    def test_histogram_rendering(self):
        registry = MetricsRegistry()
        hist = registry.histogram("lat", "Latency", buckets=(0.1, 1.0))
        hist.observe(0.05)
        hist.observe(5.0)
        text = to_prometheus_text(registry)
        assert 'lat_bucket{le="0.1"} 1' in text
        assert 'lat_bucket{le="1"} 1' in text
        assert 'lat_bucket{le="+Inf"} 2' in text
        assert "lat_count 2" in text

    def test_label_escaping(self):
        registry = MetricsRegistry()
        registry.counter("c", "", labels=("msg",)).labels('say "hi"\n').inc()
        text = to_prometheus_text(registry)
        assert 'c{msg="say \\"hi\\"\\n"} 1' in text
