"""STORE — durable state store: checkpointed recovery and compaction.

Two claims, one per test group:

* **Checkpointed recovery is flat.**  A store with no checkpoint
  policy reads the whole journal on recovery, so recovery cost grows
  linearly with completed work; a checkpointing store restores the
  latest snapshot and replays only the journal suffix past its
  covered offset, so its replay debt is bounded by the checkpoint
  cadence no matter how long the history is.  The
  record counts are asserted (not eyeballed); the timed variants show
  the same shape in wall-clock.
* **Compaction throughput.**  ``compact()`` retires the sealed
  segments wholly covered by the oldest retained checkpoint, whole
  (it never rewrites one); the table reports records retired per
  second.
"""

import shutil
import time

import pytest

from repro.store import DurableStore
from repro.wfms import Activity, Engine, ProcessDefinition

from _helpers import print_table

#: Checkpoint cadence used throughout (journal records per snapshot).
CHECKPOINT_EVERY = 16
#: Journal records one Flow instance writes (start + 3 acts + finish).
RECORDS_PER_INSTANCE = 5
HISTORIES = (8, 32, 128)


def register(engine):
    engine.register_program("p", lambda ctx: 0)
    defn = ProcessDefinition("Flow")
    for name in ("A", "B", "C"):
        defn.add_activity(Activity(name, program="p"))
    defn.connect("A", "B")
    defn.connect("B", "C")
    engine.register_definition(defn)
    return engine


def store_engine(directory, **kwargs):
    kwargs.setdefault("checkpoint_every_records", CHECKPOINT_EVERY)
    return register(Engine(store=DurableStore(directory, **kwargs)))


def full_replay_engine(directory):
    """No checkpoint policy: recovery reads the whole journal."""
    return register(Engine(store=DurableStore(directory)))


def run_history(engine, instances):
    for __ in range(instances):
        engine.start_process("Flow")
        engine.run()


def test_replay_debt_flat_vs_linear(tmp_path):
    """The acceptance check, by record count: full replay grows with
    history, the checkpointed suffix does not."""
    rows, suffixes, fulls = [], [], []
    for instances in HISTORIES:
        engine = store_engine(tmp_path / ("s%d" % instances))
        run_history(engine, instances)
        engine.crash()
        rebuilt = store_engine(tmp_path / ("s%d" % instances))
        rebuilt.recover()
        summary = rebuilt.store.last_recovery
        rebuilt.close()

        full_dir = tmp_path / ("f%d" % instances)
        plain = full_replay_engine(full_dir)
        run_history(plain, instances)
        plain.crash()
        plain2 = full_replay_engine(full_dir)
        plain2.recover()
        total = instances * RECORDS_PER_INSTANCE
        assert plain2.store.last_recovery["suffix_records"] == total
        plain2.close()

        rows.append((instances, total, summary["suffix_records"]))
        fulls.append(total)
        suffixes.append(summary["suffix_records"])
    print_table(
        "STORE: replay debt vs history (checkpoint every %d records)"
        % CHECKPOINT_EVERY,
        ["instances", "full replay records", "checkpointed suffix"],
        rows,
    )
    # Full replay is linear in history; the suffix is bounded by the
    # cadence plus the records one in-flight instance can add.
    assert fulls[-1] == fulls[0] * (HISTORIES[-1] // HISTORIES[0])
    bound = CHECKPOINT_EVERY + RECORDS_PER_INSTANCE
    assert all(suffix <= bound for suffix in suffixes)


@pytest.mark.parametrize("instances", HISTORIES)
def test_checkpointed_recovery_time(benchmark, tmp_path, instances):
    """Wall-clock recovery with checkpoints: flat across history."""
    directory = tmp_path / "store"
    engine = store_engine(directory)
    run_history(engine, instances)
    engine.crash()

    def recover_once():
        rebuilt = store_engine(directory)
        rebuilt.recover()
        summary = rebuilt.store.last_recovery
        rebuilt.close()
        return summary

    summary = benchmark(recover_once)
    assert summary["checkpoint"] is not None
    assert summary["suffix_records"] <= CHECKPOINT_EVERY + RECORDS_PER_INSTANCE


@pytest.mark.parametrize("instances", HISTORIES)
def test_full_replay_recovery_time(benchmark, tmp_path, instances):
    """Wall-clock recovery without checkpoints: linear across history.
    Every record is read back; the finished instances' completions are
    skipped, because every store archives finished roots."""
    directory = tmp_path / "full"
    engine = full_replay_engine(directory)
    run_history(engine, instances)
    engine.crash()

    def recover_once():
        fresh = full_replay_engine(directory)
        fresh.recover()
        summary = fresh.store.last_recovery
        fresh.close()
        return summary

    summary = benchmark(recover_once)
    assert summary["suffix_records"] == instances * RECORDS_PER_INSTANCE
    assert summary["archived_skipped"] == instances


def test_compaction_throughput(tmp_path):
    """Records retired per second when a checkpoint covers most of the
    journal.  Compaction is destructive, so each sample runs against a
    fresh copy of the same pre-built store directory."""
    instances = 200
    master = tmp_path / "master"
    engine = store_engine(
        master,
        checkpoint_every_records=10_000,  # no automatic checkpoints
        compact_on_checkpoint=False,
        segment_max_records=64,
    )
    run_history(engine, instances)
    engine.checkpoint()
    engine.close()

    rows, best = [], 0.0
    for sample in range(3):
        copy = tmp_path / ("run%d" % sample)
        shutil.copytree(master, copy)
        store = DurableStore(copy, compact_on_checkpoint=False)
        store.attach()
        start = time.perf_counter()
        stats = store.compact()
        elapsed = time.perf_counter() - start
        store.close()
        retired = stats["records_dropped"]
        assert retired > 0 and stats["segments_dropped"] > 0
        best = max(best, retired / elapsed)
        rows.append(
            (
                sample,
                retired,
                stats["segments_dropped"],
                "%.0f" % (retired / elapsed),
            )
        )
    print_table(
        "STORE: compaction throughput (%d instances, 64-record segments)"
        % instances,
        ["run", "records retired", "segments dropped", "records/sec"],
        rows,
    )
    assert best > 0.0
