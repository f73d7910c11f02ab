"""Metrics: labeled counters, gauges and fixed-bucket histograms.

The paper's §3.3 lists *monitoring* and *accounting* among the
features a WFMS adds over a bare transaction model.  The
:class:`~repro.wfms.audit.AuditTrail` is the correctness ground truth
— every record matters and is queryable — whereas metrics are cheap
aggregates meant to be scraped continuously: a counter is one float,
not a record per event.

Instruments follow the Prometheus data model:

* :class:`Counter` — monotonically increasing float,
* :class:`Gauge` — float that can go up and down,
* :class:`Histogram` — fixed cumulative buckets plus sum and count.

Each instrument is created once via the :class:`MetricsRegistry` and
may declare label *names*; ``labels(*values)`` returns a cached child
bound to those values, so hot paths hold a direct reference and pay
one method call per update.

**Zero overhead when off**: :class:`NullRegistry` returns the shared
:data:`NULL_INSTRUMENT` from every factory method.  All its mutators
(``inc``/``dec``/``set``/``observe``/``labels``) are no-ops, so
instrumented code keeps its cached instrument references and the
disabled path costs a single attribute call per site.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any

from repro.errors import ObservabilityError

#: Default histogram buckets (seconds), Prometheus-style upper bounds.
DEFAULT_BUCKETS = (
    0.0001,
    0.00025,
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
)


class _Instrument:
    """Common machinery: identity, label names, cached children."""

    kind = "untyped"

    __slots__ = ("name", "help", "label_names", "_children")

    def __init__(self, name: str, help_text: str, label_names: tuple[str, ...]):
        self.name = name
        self.help = help_text
        self.label_names = label_names
        #: label values tuple -> child instrument
        self._children: dict[tuple[str, ...], Any] = {}

    def labels(self, *values: Any) -> Any:
        """The child instrument bound to these label values (cached)."""
        if len(values) != len(self.label_names):
            raise ObservabilityError(
                "instrument %s takes %d label value(s) %r, got %d"
                % (
                    self.name,
                    len(self.label_names),
                    self.label_names,
                    len(values),
                )
            )
        key = tuple(str(v) for v in values)
        child = self._children.get(key)
        if child is None:
            child = self._children[key] = self._make_child()
        return child

    def _make_child(self) -> Any:
        raise NotImplementedError

    def _samples(self):
        """(label values, child) pairs; the unlabeled instrument itself
        counts as the empty-label sample when it was ever touched."""
        return sorted(self._children.items())


class Counter(_Instrument):
    """Monotonically increasing value."""

    kind = "counter"

    __slots__ = ("_value",)

    def __init__(
        self,
        name: str = "",
        help_text: str = "",
        label_names: tuple[str, ...] = (),
    ):
        super().__init__(name, help_text, label_names)
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ObservabilityError("counters can only increase")
        self._value += amount

    @property
    def value(self) -> float:
        return self._value

    def _make_child(self) -> "Counter":
        return Counter()

    def snapshot(self) -> dict[str, Any]:
        samples = [
            {"labels": dict(zip(self.label_names, key)), "value": child._value}
            for key, child in self._samples()
        ]
        if not self.label_names:
            samples = [{"labels": {}, "value": self._value}]
        return {
            "name": self.name,
            "type": self.kind,
            "help": self.help,
            "samples": samples,
        }


class Gauge(_Instrument):
    """A value that can move in both directions."""

    kind = "gauge"

    __slots__ = ("_value",)

    def __init__(
        self,
        name: str = "",
        help_text: str = "",
        label_names: tuple[str, ...] = (),
    ):
        super().__init__(name, help_text, label_names)
        self._value = 0.0

    def set(self, value: float) -> None:
        self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self._value -= amount

    @property
    def value(self) -> float:
        return self._value

    def _make_child(self) -> "Gauge":
        return Gauge()

    def snapshot(self) -> dict[str, Any]:
        samples = [
            {"labels": dict(zip(self.label_names, key)), "value": child._value}
            for key, child in self._samples()
        ]
        if not self.label_names:
            samples = [{"labels": {}, "value": self._value}]
        return {
            "name": self.name,
            "type": self.kind,
            "help": self.help,
            "samples": samples,
        }


class Histogram(_Instrument):
    """Fixed cumulative buckets plus sum and count."""

    kind = "histogram"

    __slots__ = ("buckets", "_counts", "_sum", "_count")

    def __init__(
        self,
        name: str = "",
        help_text: str = "",
        label_names: tuple[str, ...] = (),
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
    ):
        super().__init__(name, help_text, label_names)
        if not buckets or list(buckets) != sorted(buckets):
            raise ObservabilityError(
                "histogram buckets must be a non-empty ascending sequence"
            )
        self.buckets = tuple(float(b) for b in buckets)
        #: per-bucket counts (non-cumulative; cumulated on snapshot),
        #: one extra slot for the +Inf overflow bucket.
        self._counts = [0] * (len(self.buckets) + 1)
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        self._counts[bisect_left(self.buckets, value)] += 1
        self._sum += value
        self._count += 1

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    def quantile(self, q: float) -> float:
        """Estimated ``q``-quantile (0 <= q <= 1) from the bucket
        counts, linearly interpolated within the covering bucket —
        the Prometheus ``histogram_quantile`` estimate, computed
        locally so p50/p99 can be read without an external system.
        Values beyond the last finite bucket clamp to that bucket's
        upper bound; an empty histogram reports 0.
        """
        if not 0.0 <= q <= 1.0:
            raise ObservabilityError("quantile q must be in [0, 1]")
        if self._count == 0:
            return 0.0
        target = q * self._count
        cumulative = 0
        for index, n in enumerate(self._counts):
            if n == 0:
                continue
            if cumulative + n >= target:
                if index >= len(self.buckets):
                    # +Inf overflow bucket: no finite upper bound to
                    # interpolate toward.
                    return self.buckets[-1]
                lower = self.buckets[index - 1] if index else 0.0
                upper = self.buckets[index]
                fraction = (target - cumulative) / n
                return lower + (upper - lower) * fraction
            cumulative += n
        return self.buckets[-1]

    def _make_child(self) -> "Histogram":
        return Histogram(buckets=self.buckets)

    def _one_sample(self, labels: dict[str, str], child) -> dict[str, Any]:
        cumulative = []
        running = 0
        for upper, n in zip(child.buckets, child._counts):
            running += n
            cumulative.append({"le": upper, "count": running})
        return {
            "labels": labels,
            "buckets": cumulative,
            "sum": child._sum,
            "count": child._count,
        }

    def snapshot(self) -> dict[str, Any]:
        samples = [
            self._one_sample(dict(zip(self.label_names, key)), child)
            for key, child in self._samples()
        ]
        if not self.label_names:
            samples = [self._one_sample({}, self)]
        return {
            "name": self.name,
            "type": self.kind,
            "help": self.help,
            "samples": samples,
        }


class NullInstrument:
    """The shared do-nothing instrument.

    Every mutator is a no-op and ``labels`` returns the instrument
    itself, so code written against a real instrument runs unchanged —
    and nearly free — when observability is disabled.
    """

    __slots__ = ()

    def labels(self, *values: Any) -> "NullInstrument":
        return self

    def inc(self, amount: float = 1.0) -> None:
        pass

    def dec(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def quantile(self, q: float) -> float:
        return 0.0

    @property
    def value(self) -> float:
        return 0.0

    @property
    def count(self) -> int:
        return 0

    @property
    def sum(self) -> float:
        return 0.0


#: Module-level singleton handed out by :class:`NullRegistry`.
NULL_INSTRUMENT = NullInstrument()

_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricsRegistry:
    """All instruments of one engine (or one test).

    Factory methods are idempotent: asking for an existing name returns
    the existing instrument, provided kind and label names match
    (mismatch raises :class:`ObservabilityError` — two call sites
    disagreeing about an instrument is a bug worth failing on).
    """

    enabled = True

    def __init__(self) -> None:
        self._instruments: dict[str, _Instrument] = {}

    def _get_or_create(
        self,
        cls,
        name: str,
        help_text: str,
        labels: tuple[str, ...],
        **kwargs: Any,
    ):
        existing = self._instruments.get(name)
        if existing is not None:
            if not isinstance(existing, cls) or existing.label_names != tuple(
                labels
            ):
                raise ObservabilityError(
                    "instrument %r re-registered as %s%r, but it is %s%r"
                    % (
                        name,
                        cls.kind,
                        tuple(labels),
                        existing.kind,
                        existing.label_names,
                    )
                )
            return existing
        instrument = cls(name, help_text, tuple(labels), **kwargs)
        self._instruments[name] = instrument
        return instrument

    def counter(
        self, name: str, help_text: str = "", labels: tuple[str, ...] = ()
    ) -> Counter:
        return self._get_or_create(Counter, name, help_text, labels)

    def gauge(
        self, name: str, help_text: str = "", labels: tuple[str, ...] = ()
    ) -> Gauge:
        return self._get_or_create(Gauge, name, help_text, labels)

    def histogram(
        self,
        name: str,
        help_text: str = "",
        labels: tuple[str, ...] = (),
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> Histogram:
        return self._get_or_create(
            Histogram, name, help_text, labels, buckets=buckets
        )

    def get(self, name: str) -> _Instrument | None:
        return self._instruments.get(name)

    def names(self) -> list[str]:
        return sorted(self._instruments)

    def collect(self) -> list[dict[str, Any]]:
        """Snapshot of every instrument, sorted by name (pure data —
        the exporters in :mod:`repro.obs.export` render this)."""
        return [
            self._instruments[name].snapshot()
            for name in sorted(self._instruments)
        ]


class NullRegistry:
    """The disabled registry: every factory returns the shared no-op
    instrument, so the disabled path costs one attribute call."""

    enabled = False

    def counter(self, name, help_text="", labels=()) -> NullInstrument:
        return NULL_INSTRUMENT

    def gauge(self, name, help_text="", labels=()) -> NullInstrument:
        return NULL_INSTRUMENT

    def histogram(
        self, name, help_text="", labels=(), buckets=DEFAULT_BUCKETS
    ) -> NullInstrument:
        return NULL_INSTRUMENT

    def get(self, name) -> None:
        return None

    def names(self) -> list[str]:
        return []

    def collect(self) -> list[dict[str, Any]]:
        return []
