"""Every checkpoint offset is a segment boundary, so compaction only
ever retires whole sealed segments.

The checkpoint protocol rotates before it takes its offset; this file
checks the consequence as a property over random schedules, for the
engine's ``DurableStore`` and the broker's ``BusLog``, with and
without automatic rotation (``segment_max_records``), and while
``snapshot.write`` tears checkpoints (a torn checkpoint's offset still
becomes a compaction floor later).
"""

import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import JournalError
from repro.net import BusLog
from repro.resilience import FaultInjector, FaultRule
from repro.store import CheckpointedLog, DurableStore
from repro.store.segments import SegmentedJournal
from repro.wfms import Activity, Engine, ProcessDefinition


def firsts(journal):
    return [entry["first"] for entry in journal.manifest()["segments"]]


class BoundaryCheck:
    """Wraps the checkpoint protocol and compaction with the property's
    assertions and counts what it saw."""

    def __init__(self, monkeypatch):
        self.attempts = 0
        self.checkpoints = 0
        self.floors = []
        real_checkpoint = CheckpointedLog.checkpoint
        real_compact = SegmentedJournal.compact

        def checkpoint(log, state, **options):
            self.attempts += 1
            offset = real_checkpoint(log, state, **options)
            assert offset in firsts(log.journal)
            self.checkpoints += 1
            return offset

        def compact(journal, offset):
            head = firsts(journal)[0]
            assert offset in firsts(journal)
            stats = real_compact(journal, offset)
            # Exactly the history below the floor is gone, on disk and
            # in memory.
            assert firsts(journal)[0] == max(offset, head)
            assert journal.records() == journal.suffix(offset)
            assert stats["records_dropped"] == max(offset, head) - head
            self.floors.append(offset)
            return stats

        monkeypatch.setattr(CheckpointedLog, "checkpoint", checkpoint)
        monkeypatch.setattr(SegmentedJournal, "compact", compact)


def injector_for(tears):
    if not tears:
        return None
    return FaultInjector(
        [FaultRule("snapshot.write", schedule=set(tears))], seed=1
    )


segment_max = st.one_of(st.none(), st.integers(1, 5))
tears = st.sets(st.integers(1, 12), max_size=3)


def flow():
    definition = ProcessDefinition("Flow")
    for name in ("A", "B", "C"):
        definition.add_activity(Activity(name, program="p"))
    definition.connect("A", "B")
    definition.connect("B", "C")
    return definition


@settings(max_examples=25, deadline=None)
@given(
    every=st.integers(1, 6),
    segment_max=segment_max,
    tears=tears,
    starts=st.lists(st.integers(1, 4), min_size=1, max_size=8),
)
def test_engine_store_checkpoints_land_on_segment_boundaries(
    every, segment_max, tears, starts
):
    """Each round starts ``starts[i]`` instances and runs the engine to
    quiescence; a torn snapshot crashes the engine, which is rebuilt
    over the same directory and recovered.  A last checkpoint is asked
    for explicitly."""
    injector = injector_for(tears)
    with (
        tempfile.TemporaryDirectory() as directory,
        pytest.MonkeyPatch.context() as patch,
    ):
        check = BoundaryCheck(patch)

        def build():
            store = DurableStore(
                directory,
                sync="never",
                checkpoint_every_records=every,
                segment_max_records=segment_max,
            )
            engine = Engine(store=store, fault_injector=injector)
            engine.register_program("p", lambda ctx: 0)
            engine.register_definition(flow())
            return engine

        engine = build()
        for count in starts:
            for attempt in range(20):
                try:
                    if attempt == 0:
                        for __ in range(count):
                            engine.start_process("Flow")
                    engine.run()
                    break
                except JournalError:
                    engine = build()
                    engine.recover()
            else:
                pytest.fail("engine did not converge")
        try:
            engine.checkpoint()
        except JournalError:
            pass
        engine.close()
    assert check.attempts >= 1
    assert len(check.floors) == check.checkpoints


@settings(max_examples=25, deadline=None)
@given(
    segment_max=segment_max,
    tears=tears,
    rounds=st.lists(st.integers(0, 6), min_size=1, max_size=10),
)
def test_bus_log_checkpoints_land_on_segment_boundaries(
    segment_max, tears, rounds
):
    """``rounds[i]`` bus records, then one checkpoint; a torn snapshot
    raises and the log carries on, as the broker does."""
    with (
        tempfile.TemporaryDirectory() as directory,
        pytest.MonkeyPatch.context() as patch,
    ):
        check = BoundaryCheck(patch)
        log = BusLog(
            directory,
            sync="never",
            segment_max_records=segment_max,
            injector=injector_for(tears),
        )
        for count in rounds:
            for __ in range(count):
                log.record({"type": "ack", "queue": "q", "msg_id": "m-1"})
            try:
                log.checkpoint({}, {})
            except JournalError:
                pass
        log.close()
    assert check.attempts == len(rounds)
    assert len(check.floors) == check.checkpoints
