"""Performance gate over the scheduling-core benchmarks.

Measures the large-N throughput scenarios of
:mod:`bench_engine_throughput` and :mod:`bench_worklist` and compares
them against the committed ``BENCH_baseline.json`` snapshot; exits
non-zero if any metric regresses more than the tolerance (default
20%), so a PR that quietly re-introduces an O(n) scan in the
scheduler or worklists fails loudly.

Usage (from the repository root)::

    PYTHONPATH=src python benchmarks/compare.py             # gate
    PYTHONPATH=src python benchmarks/compare.py --update    # re-snapshot
    PYTHONPATH=src python benchmarks/compare.py --filter engine.sharded
                                             # gate one metric family

Timings are best-of-``REPEATS`` wall-clock throughput, which is noisy
across hosts — the snapshot is only meaningful against itself, hence
the generous tolerance.  ``--update`` re-measures on the current host
and rewrites the snapshot.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(
    0,
    os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
    ),
)

BASELINE_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCH_baseline.json",
)
DEFAULT_TOLERANCE = 0.20
REPEATS = 5


def _best_throughput(units: int, run, setup) -> float:
    """Best observed units/second over REPEATS runs (after one warmup)."""
    best = 0.0
    run(setup())  # warmup
    for __ in range(REPEATS):
        state = setup()
        start = time.perf_counter()
        run(state)
        elapsed = time.perf_counter() - start
        best = max(best, units / elapsed)
    return best


def measure_engine_large_dag() -> float:
    """activities/sec navigating one wide-and-deep (16x16) DAG."""
    from bench_engine_throughput import engine_for
    from repro.workloads.generator import random_dag_process

    layers, width = 16, 16
    definition = random_dag_process(layers=layers, width=width, seed=42)

    def setup():
        return engine_for(definition)

    def run(engine):
        assert engine.run_process(definition.name).finished

    return _best_throughput(layers * width, run, setup)


def measure_engine_dag_8x8() -> float:
    """activities/sec on the 8x8 DAG on a plain ``Engine()``.

    This is the zero-overhead-when-off gate.  Observability, the fault
    injector and policies, the durable store, transaction scopes and
    flows are all opt-in, and each leaves one guard (an attribute read
    or a ``dict.get``) on this path when off; the metric regresses if a
    change makes the default engine pay more than that.
    """
    from bench_observability import RUNS, observability_throughput

    best = 0.0
    observability_throughput(None, runs=2)  # warmup
    for __ in range(REPEATS):
        best = max(best, observability_throughput(None, runs=RUNS))
    return best


def measure_engine_concurrent() -> float:
    """activities/sec across the large-N concurrent-instance batch."""
    from bench_engine_throughput import (
        CONCURRENT_INSTANCES,
        CONCURRENT_SHAPE,
        concurrent_batch_setup,
        run_concurrent_batch,
    )

    layers, width = CONCURRENT_SHAPE
    units = layers * width * CONCURRENT_INSTANCES

    def setup():
        engine, definition = concurrent_batch_setup()
        return engine, definition

    def run(state):
        engine, definition = state
        run_concurrent_batch(engine, definition)

    return _best_throughput(units, run, setup)


def measure_worklist_offer() -> float:
    """work items offered (process starts) per second."""
    from bench_worklist import CLAIM_ITEMS, build_engine, offer_all

    def setup():
        return build_engine()

    def run(engine):
        offer_all(engine, CLAIM_ITEMS)

    return _best_throughput(CLAIM_ITEMS, run, setup)


def measure_worklist_claim() -> float:
    """claims/sec draining a large offered backlog round-robin."""
    from bench_worklist import (
        CLAIM_ITEMS,
        build_engine,
        claim_backlog_round_robin,
        offer_all,
    )

    def setup():
        engine = build_engine()
        offer_all(engine, CLAIM_ITEMS)
        return engine

    def run(engine):
        assert claim_backlog_round_robin(engine) == CLAIM_ITEMS

    return _best_throughput(CLAIM_ITEMS, run, setup)


def measure_conditions_compiled() -> float:
    """condition evaluations/sec through the compiled-closure path."""
    from bench_conditions import EVALS, EXPRESSIONS, VALUES, run_compiled
    from repro.wfms.conditions import parse_condition

    conditions = [parse_condition(source) for __, source in EXPRESSIONS]
    resolver = VALUES.get

    def setup():
        return conditions

    def run(state):
        for condition in state:
            run_compiled(condition, resolver)

    return _best_throughput(EVALS * len(conditions), run, setup)


def _measure_journal(sync: str) -> float:
    import shutil
    import tempfile
    from pathlib import Path

    from bench_journal import APPENDS, append_all, journal_for

    # Prefer tmpfs so the metric tracks the journal's per-append code
    # path (serialisation, buffering, syscall count) rather than the
    # host disk's fsync jitter, which can swing 2x run-to-run.
    base = "/dev/shm" if os.access("/dev/shm", os.W_OK) else None
    tmp = Path(tempfile.mkdtemp(prefix="bench_journal_", dir=base))
    counter = iter(range(1_000_000))
    passes = 5  # amortise timer jitter over a ~50ms run

    try:

        def setup():
            return journal_for(tmp, sync, next(counter))

        def run(journal):
            for __ in range(passes):
                append_all(journal)
            journal.close()

        return _best_throughput(APPENDS * passes, run, setup)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def measure_journal_always() -> float:
    """journal appends/sec with per-record fsync (the default)."""
    return _measure_journal("always")


def measure_journal_batch() -> float:
    """journal appends/sec under group commit (batch_size=64)."""
    return _measure_journal("batch")


def measure_store_recovery_checkpointed() -> float:
    """checkpointed recoveries/sec over a 200-instance history.

    The durable store restores the latest snapshot and replays only
    the journal suffix past its covered offset, so this metric is flat
    in history length; it regresses if recovery falls back to scanning
    the full journal or the archive index load leaves the O(archived)
    regime.
    """
    import shutil
    import tempfile
    from pathlib import Path

    from bench_store import run_history, store_engine

    base = "/dev/shm" if os.access("/dev/shm", os.W_OK) else None
    tmp = Path(tempfile.mkdtemp(prefix="bench_store_", dir=base))
    try:
        directory = tmp / "store"
        engine = store_engine(directory)
        run_history(engine, 200)
        engine.crash()

        def setup():
            return directory

        def run(target):
            rebuilt = store_engine(target)
            rebuilt.recover()
            rebuilt.close()

        return _best_throughput(1, run, setup)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def measure_engine_sharded() -> float:
    """activities/sec across the same large-N batch partitioned over
    4 in-process shards.

    Against ``engine.concurrent_200x3x3`` this measures what the
    sharded pump costs (or saves) on one core: the per-shard engines
    run smaller ready-heaps and instance tables, the cluster adds the
    round-robin scheduler on top.
    """
    from bench_sharding import (
        SHARDED_INSTANCES,
        SHARDED_SHAPE,
        SHARDED_SHARDS,
        run_sharded_batch,
        sharded_setup,
    )

    layers, width = SHARDED_SHAPE
    units = layers * width * SHARDED_INSTANCES

    def setup():
        return sharded_setup(SHARDED_SHARDS)

    def run(state):
        sharded, definition = state
        run_sharded_batch(sharded, definition)

    return _best_throughput(units, run, setup)


def measure_tx_scope_chain() -> float:
    """scope ops/sec over sequential scoped chains.

    The hot path of every cross-activity transaction scope: handle
    registry, logical-clock tick, strict-2PL acquisition and WAL
    logging per write, savepoint watermark, commit.  Regresses if the
    scope layer adds per-operation cost beyond the substrate's own.
    """
    from bench_tx_scope import scope_chain_throughput

    best = 0.0
    scope_chain_throughput(chains=20)  # warmup
    for __ in range(REPEATS):
        best = max(best, scope_chain_throughput())
    return best


def measure_flow_step_replay() -> float:
    """journal replays/sec in the decorator front end's drive loop.

    Every workflow attempt re-runs the Python body and answers each
    already-journaled step from the journal map, so an n-step flow
    performs O(n^2) replays.  Regresses if replay ever grows beyond
    canonicalize + dict probe — the property that makes re-running the
    body from the top affordable.
    """
    from bench_flow import step_replay_throughput

    best = 0.0
    step_replay_throughput(flows=1)  # warmup
    for __ in range(REPEATS):
        best = max(best, step_replay_throughput())
    return best


def measure_net_request_reply() -> float:
    """bus RPC round-trips/sec over a live loopback broker.

    The per-message floor of the socket transport: framing, one TCP
    round-trip, broker dispatch, for each of send/receive/ack.
    Regresses if the frame codec or the broker's dispatch path gains
    per-request cost.
    """
    from bench_net import request_reply_throughput

    best = 0.0
    for __ in range(3):
        best = max(best, request_reply_throughput())
    return best


def measure_net_durable_request_reply() -> float:
    """bus RPC round-trips/sec with the write-ahead bus log armed
    (``sync="batch"``).

    Every send/ack journals its effect before the reply frame goes
    out; this metric bounds the durability overhead against
    ``net.request_reply`` and regresses if the bus-log append path
    (record staging, serialization, segment writes) gains per-op cost.
    """
    from bench_net import durable_request_reply_throughput

    best = 0.0
    for __ in range(3):
        best = max(best, durable_request_reply_throughput())
    return best


METRICS = {
    "engine.dag_16x16.activities_per_sec": measure_engine_large_dag,
    "engine.dag_8x8.activities_per_sec": measure_engine_dag_8x8,
    "engine.concurrent_200x3x3.activities_per_sec": measure_engine_concurrent,
    "engine.sharded_200x3x3.activities_per_sec": measure_engine_sharded,
    "worklist.offer_600.items_per_sec": measure_worklist_offer,
    "worklist.claim_600_round_robin.claims_per_sec": measure_worklist_claim,
    "conditions.compiled_mix.evals_per_sec": measure_conditions_compiled,
    "journal.append_always.records_per_sec": measure_journal_always,
    "journal.append_batch64.records_per_sec": measure_journal_batch,
    "store.recovery_checkpointed.recoveries_per_sec": (
        measure_store_recovery_checkpointed
    ),
    "tx.scope_chain.ops_per_sec": measure_tx_scope_chain,
    "flow.step_replay.ops_per_sec": measure_flow_step_replay,
    "net.request_reply.roundtrips_per_sec": measure_net_request_reply,
    "net.durable_request_reply.roundtrips_per_sec": (
        measure_net_durable_request_reply
    ),
}


def measure_all(metrics: dict | None = None) -> dict[str, float]:
    results = {}
    for name, fn in (metrics or METRICS).items():
        results[name] = round(fn(), 1)
        print("measured  %-50s %12.1f" % (name, results[name]))
    return results


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--update",
        action="store_true",
        help="re-measure and rewrite %s" % os.path.basename(BASELINE_PATH),
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=None,
        help="allowed fractional regression (default: snapshot's, else %.2f)"
        % DEFAULT_TOLERANCE,
    )
    parser.add_argument(
        "--runs",
        type=int,
        default=3,
        help="with --update: measurement sweeps; the per-metric minimum "
        "is snapshotted so the baseline is a conservative floor "
        "(default: 3)",
    )
    parser.add_argument(
        "--json-out",
        metavar="FILE",
        help="also write this run's measurements (and the gate verdict) "
        "as JSON — CI uploads it as a workflow artifact",
    )
    parser.add_argument(
        "--filter",
        metavar="PREFIX",
        help="only measure/compare metrics whose name starts with PREFIX; "
        "with --update, unmatched metrics are carried over from the "
        "existing snapshot instead of being re-measured",
    )
    args = parser.parse_args(argv)

    selected = METRICS
    if args.filter:
        selected = {
            name: fn
            for name, fn in METRICS.items()
            if name.startswith(args.filter)
        }
        if not selected:
            parser.error("--filter %r matches no metric" % args.filter)

    def write_json_out(payload: dict) -> None:
        if args.json_out:
            with open(args.json_out, "w", encoding="utf-8") as handle:
                json.dump(payload, handle, indent=2, sort_keys=True)
                handle.write("\n")
            print("wrote %s" % args.json_out)

    if args.update:
        existing: dict = {}
        if os.path.exists(BASELINE_PATH):
            with open(BASELINE_PATH, "r", encoding="utf-8") as handle:
                existing = json.load(handle)
        # A filtered update re-measures only the selected metrics and
        # keeps the rest of the committed snapshot intact.
        metrics: dict[str, float] = (
            dict(existing.get("metrics", {})) if args.filter else {}
        )
        fresh: dict[str, float] = {}
        for sweep in range(max(1, args.runs)):
            print("-- update sweep %d/%d" % (sweep + 1, max(1, args.runs)))
            for name, value in measure_all(selected).items():
                fresh[name] = min(fresh.get(name, value), value)
        metrics.update(fresh)
        snapshot = {
            "tolerance": args.tolerance
            or existing.get("tolerance", DEFAULT_TOLERANCE),
            "metrics": metrics,
        }
        with open(BASELINE_PATH, "w", encoding="utf-8") as handle:
            json.dump(snapshot, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print("wrote %s" % BASELINE_PATH)
        write_json_out(snapshot)
        return 0

    if not os.path.exists(BASELINE_PATH):
        print("no baseline snapshot at %s; run with --update" % BASELINE_PATH)
        return 2
    with open(BASELINE_PATH, "r", encoding="utf-8") as handle:
        snapshot = json.load(handle)
    tolerance = (
        args.tolerance
        if args.tolerance is not None
        else snapshot.get("tolerance", DEFAULT_TOLERANCE)
    )

    current = measure_all(selected)
    failures = []
    compared = {
        name: baseline
        for name, baseline in snapshot["metrics"].items()
        if not args.filter or name.startswith(args.filter)
    }
    for name, baseline in sorted(compared.items()):
        now = current.get(name)
        if now is None:
            failures.append("%s: metric disappeared" % name)
            continue
        floor = baseline * (1.0 - tolerance)
        delta = (now - baseline) / baseline
        status = "ok" if now >= floor else "REGRESSED"
        print(
            "%-9s %-50s %12.1f vs %12.1f (%+6.1f%%)"
            % (status, name, now, baseline, 100.0 * delta)
        )
        if now < floor:
            failures.append(
                "%s: %.1f is %.1f%% below baseline %.1f (tolerance %.0f%%)"
                % (name, now, -100.0 * delta, baseline, 100.0 * tolerance)
            )
    for name in sorted(set(current) - set(compared)):
        # Measured but not yet snapshotted — report, never gate.
        print("%-9s %-50s %12.1f (no baseline)" % ("new", name, current[name]))
    write_json_out(
        {
            "baseline": snapshot["metrics"],
            "current": current,
            "tolerance": tolerance,
            "failures": failures,
        }
    )
    if failures:
        print("\nperformance gate FAILED:")
        for failure in failures:
            print("  - %s" % failure)
        return 1
    print("\nperformance gate passed (tolerance %.0f%%)" % (100.0 * tolerance))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
