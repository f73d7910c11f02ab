"""OBS — cost of the observability subsystem.

Two questions, one per test group:

* **Disabled** (the default): how close is an engine whose hot paths
  carry the instrumentation hooks to the pre-observability engine?
  The design goal is "one attribute read per guarded block" — the
  disabled throughput must stay within measurement noise of the
  baseline; ``compare.py`` gates exactly this number as
  ``engine.dag_8x8``.
* **Enabled**: what does full instrumentation (metrics + spans +
  hooks) cost when switched on?  This is informational — enabled
  observability is allowed to cost — but the table keeps the factor
  honest.
"""

import time

import pytest

from repro.obs import NavigatorDispatched, Observability
from repro.wfms.engine import Engine
from repro.workloads.generator import DAG_PROGRAM, random_dag_process

from _helpers import print_table

#: Shape of the measured DAG workload.
SHAPE = (8, 8)
RUNS = 30


def engine_for(definition, observability=None):
    engine = Engine(observability=observability)
    engine.register_program(DAG_PROGRAM, lambda ctx: 0)
    engine.register_definition(definition)
    return engine


def observability_throughput(observability, runs=RUNS, subscribe=False):
    """activities/sec on the standard DAG with the given obs setting."""
    layers, width = SHAPE
    definition = random_dag_process(layers=layers, width=width, seed=42)
    engine = engine_for(definition, observability)
    if subscribe:
        engine.obs.hooks.subscribe(
            NavigatorDispatched, lambda event: None
        )
    engine.run_process(definition.name)  # warmup
    start = time.perf_counter()
    for __ in range(runs):
        assert engine.run_process(definition.name).finished
    elapsed = time.perf_counter() - start
    return layers * width * runs / elapsed


def test_overhead_table():
    """Disabled vs enabled throughput, with the overhead factors."""
    rows = []
    disabled = observability_throughput(None)
    variants = [
        ("disabled (default)", disabled),
        ("enabled, no subscribers", observability_throughput(True)),
        (
            "enabled + hook subscriber",
            observability_throughput(Observability(), subscribe=True),
        ),
    ]
    for name, value in variants:
        rows.append(
            (
                name,
                "%.0f" % value,
                "%.2fx" % (disabled / value),
            )
        )
    print_table(
        "OBS: observability overhead (8x8 DAG, activities/sec)",
        ["configuration", "activities/sec", "slowdown vs disabled"],
        rows,
    )
    # The enabled path records ~6 instruments + 2 spans per activity;
    # a factor beyond ~10x would mean instrumentation left the
    # constant-work regime (e.g. an accidental scan per event).
    enabled = variants[1][1]
    assert disabled / enabled < 10.0


def test_disabled_throughput(benchmark):
    layers, width = SHAPE
    definition = random_dag_process(layers=layers, width=width, seed=42)
    engine = engine_for(definition)
    result = benchmark(lambda: engine.run_process(definition.name))
    assert result.finished


def test_enabled_throughput(benchmark):
    layers, width = SHAPE
    definition = random_dag_process(layers=layers, width=width, seed=42)
    engine = engine_for(definition, observability=True)
    result = benchmark(lambda: engine.run_process(definition.name))
    assert result.finished
    assert engine.obs.tracer.spans(name="process %s" % definition.name)


def test_null_registry_is_cheap():
    """The null instruments must stay allocation-free no-ops."""
    from repro.obs.metrics import NULL_INSTRUMENT, NullRegistry

    registry = NullRegistry()
    counter = registry.counter("x", "")
    assert counter is NULL_INSTRUMENT
    assert counter.labels("a", "b") is counter
    start = time.perf_counter()
    for __ in range(100_000):
        counter.inc()
    elapsed = time.perf_counter() - start
    # 100k no-op increments in well under a second on any host.
    assert elapsed < 1.0
