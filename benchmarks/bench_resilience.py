"""RES — cost of the resilience subsystem.

Two questions, one per test group:

* **Disabled** (the default): an engine with no fault injector and no
  policies must run at the pre-resilience throughput.  The guards are
  one ``None``/emptiness test per site (program invocation, journal
  append/fsync, bus send, completion bookkeeping); ``compare.py``
  gates the plain 8x8 DAG as ``engine.dag_8x8``.
* **Installed-but-idle**: an injector whose rules never match and a
  retry policy that never triggers — the bookkeeping cost of having
  the machinery armed.  Informational, but keeps the factor honest.
"""

import time

from repro.resilience import FaultInjector, FaultRule, RetryPolicy
from repro.wfms.engine import Engine
from repro.workloads.generator import DAG_PROGRAM, random_dag_process

from _helpers import print_table

#: Shape of the measured DAG workload (matches bench_observability).
SHAPE = (8, 8)
RUNS = 30


def engine_for(definition, fault_injector=None, retry=False):
    engine = Engine(fault_injector=fault_injector)
    engine.register_program(DAG_PROGRAM, lambda ctx: 0)
    engine.register_definition(definition)
    if retry:
        engine.set_retry(DAG_PROGRAM, RetryPolicy(3, backoff="fixed"))
    return engine


def idle_injector():
    """Rules that match no site key the DAG workload ever touches."""
    return FaultInjector(
        [FaultRule("program", match="no_such_program", probability=1.0)]
    )


def resilience_throughput(fault_injector=None, retry=False, runs=RUNS):
    """activities/sec on the standard DAG with the given setup."""
    layers, width = SHAPE
    definition = random_dag_process(layers=layers, width=width, seed=42)
    engine = engine_for(definition, fault_injector, retry)
    engine.run_process(definition.name)  # warmup
    start = time.perf_counter()
    for __ in range(runs):
        assert engine.run_process(definition.name).finished
    elapsed = time.perf_counter() - start
    return layers * width * runs / elapsed


def test_overhead_table():
    """No-injector vs armed-but-idle throughput with overhead factors."""
    disabled = resilience_throughput()
    variants = [
        ("disabled (default)", disabled),
        ("idle injector", resilience_throughput(idle_injector())),
        (
            "idle injector + retry policy",
            resilience_throughput(idle_injector(), retry=True),
        ),
    ]
    rows = [
        (name, "%.0f" % value, "%.2fx" % (disabled / value))
        for name, value in variants
    ]
    print_table(
        "RES: resilience overhead (8x8 DAG, activities/sec)",
        ["configuration", "activities/sec", "slowdown vs disabled"],
        rows,
    )
    # An armed-but-idle injector does one fnmatch per program call; a
    # factor beyond ~5x would mean the sites left the constant-work
    # regime.
    idle = variants[1][1]
    assert disabled / idle < 5.0


def test_disabled_throughput(benchmark):
    layers, width = SHAPE
    definition = random_dag_process(layers=layers, width=width, seed=42)
    engine = engine_for(definition)
    result = benchmark(lambda: engine.run_process(definition.name))
    assert result.finished


def test_idle_injector_throughput(benchmark):
    layers, width = SHAPE
    definition = random_dag_process(layers=layers, width=width, seed=42)
    engine = engine_for(definition, idle_injector(), retry=True)
    result = benchmark(lambda: engine.run_process(definition.name))
    assert result.finished
