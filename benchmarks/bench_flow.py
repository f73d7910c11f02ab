"""FLOW — the durable decorator front end (``repro.flow``).

**Replay is cheap.**  Each workflow attempt re-runs the Python body
from the top and answers every already-journaled step from the journal
map — an n-step flow performs O(n^2) replays, so replay must be a dict
probe, not a re-execution.  The table reports journal replays/sec;
``compare.py`` gates it.

Flows are opt-in: an engine without ``install_flows`` has no flow
service, no ``flow_drive`` program and no per-activity hook, so
``compare.py``'s ``engine.dag_8x8`` row gates the flow-less path.
"""

import time

from repro.flow import install_flows, step, workflow
from repro.wfms import Engine

from _helpers import print_table

#: Steps per flow — attempt k replays k-1 steps, so one flow performs
#: STEPS * (STEPS - 1) / 2 journal replays.
STEPS = 24
#: Flows per timed run.
FLOWS = 8
#: Journal replays one run performs (the unit behind
#: ``flow.step_replay.ops_per_sec``).
REPLAYS_PER_RUN = FLOWS * STEPS * (STEPS - 1) // 2


def build_runtime():
    @step
    def bump(x):
        return x + 1

    @workflow
    def ladder(flow, n):
        total = 0
        for __ in range(n):
            total = bump(total)
        return total

    engine = Engine()
    return engine, install_flows(engine, [ladder], seed=0)


def step_replay_throughput(flows=FLOWS):
    """journal replays/sec across ``flows`` sequential ladder flows.

    The deferred-suspend loop's hot path: canonicalize the call,
    probe the journal map by function id, hand back the recorded
    result.  ``compare.py`` gates it.
    """
    engine, rt = build_runtime()
    for i in range(flows):
        rt.start("ladder", STEPS)
    start = time.perf_counter()
    engine.run()
    elapsed = time.perf_counter() - start
    replayed = rt.counters["steps_replayed_loop"]
    assert replayed == flows * STEPS * (STEPS - 1) // 2
    return replayed / elapsed


def test_replay_scales_quadratically_but_stays_cheap():
    """The replay-cost claim: doubling the step count quadruples the
    replays but the per-replay cost stays flat (same order)."""
    rows = []
    per_replay = {}
    for steps in (8, 16, 24):
        @step
        def bump(x):
            return x + 1

        @workflow
        def ladder(flow, n):
            total = 0
            for __ in range(n):
                total = bump(total)
            return total

        engine = Engine()
        rt = install_flows(engine, [ladder], seed=0)
        rt.start("ladder", steps)
        start = time.perf_counter()
        engine.run()
        elapsed = time.perf_counter() - start
        replays = rt.counters["steps_replayed_loop"]
        assert replays == steps * (steps - 1) // 2
        per_replay[steps] = elapsed / max(replays, 1)
        rows.append(
            (steps, replays, "%.1f" % (replays / elapsed))
        )
    # Flat per-replay cost within an order of magnitude.
    assert per_replay[24] < per_replay[8] * 10
    print_table(
        "FLOW: ladder replay cost vs step count",
        ["steps", "replays", "replays/sec"],
        rows,
    )


def test_step_replay_throughput(benchmark):
    engine, rt = build_runtime()

    def one_flow():
        rt.start("ladder", STEPS)
        engine.run()

    benchmark(one_flow)
    assert rt.counters["steps_replayed_loop"] > 0
