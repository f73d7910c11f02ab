"""Tests for persistence and forward recovery (§3.3).

"In most WFMSs the execution of a process is persistent in the sense
that forward recovery is always guaranteed ... the process execution is
resumed from the point where the failure occurred."
"""

import pytest

from repro.errors import JournalError, NavigationError, RecoveryError
from repro.store import DurableStore, SegmentedJournal
from repro.wfms import Activity, DataType, Engine, ProcessDefinition, VariableDecl
from repro.wfms.journal import ReplayCursor
from repro.wfms.model import PROCESS_OUTPUT, ActivityKind


@pytest.fixture
def store_dir(tmp_path):
    return str(tmp_path / "store")


def durable_records(directory):
    """The records a restart reads back from a journal directory."""
    with SegmentedJournal(directory) as journal:
        return journal.records()


def build_engine(store_dir, calls):
    """Three-step sequential process with call counting, persisted
    through a store with no checkpoint policy (full replay)."""
    engine = Engine(store=DurableStore(store_dir))

    def make(name):
        def program(ctx):
            calls[name] = calls.get(name, 0) + 1
            ctx.set_output("X", calls[name])
            return 0

        return program

    for name in ("A", "B", "C"):
        engine.register_program("p%s" % name, make(name))
    d = ProcessDefinition("P")
    for name in ("A", "B", "C"):
        d.add_activity(
            Activity(
                name,
                program="p%s" % name,
                output_spec=[VariableDecl("X", DataType.LONG)],
            )
        )
    d.connect("A", "B")
    d.connect("B", "C")
    engine.register_definition(d)
    return engine


class TestJournal:
    def test_records_survive_reopen(self, tmp_path):
        with SegmentedJournal(tmp_path / "j") as journal:
            journal.append({"type": "process_finished", "instance": "pi-1"})
        assert durable_records(tmp_path / "j") == [
            {"type": "process_finished", "instance": "pi-1"}
        ]

    def test_illegal_record_type_rejected(self, tmp_path):
        with SegmentedJournal(tmp_path / "j") as journal:
            with pytest.raises(RecoveryError):
                journal.append({"type": "garbage"})

    def test_torn_tail_line_ignored(self, tmp_path):
        with SegmentedJournal(tmp_path / "j") as journal:
            journal.append({"type": "process_finished", "instance": "pi-1"})
        active = tmp_path / "j" / "segment-00000000.jsonl"
        with open(active, "a", encoding="utf-8") as handle:
            handle.write('{"type": "activity_co')  # crash mid-append
        assert len(durable_records(tmp_path / "j")) == 1

    def test_closed_journal_refuses_appends(self, tmp_path):
        journal = SegmentedJournal(tmp_path / "j")
        journal.append({"type": "process_finished", "instance": "x"})
        journal.close()
        with pytest.raises(JournalError, match="closed"):
            journal.append({"type": "process_finished", "instance": "y"})
        assert len(journal) == 1
        assert durable_records(tmp_path / "j") == journal.records()

    def test_cursor_duplicate_completion_rejected(self):
        rec = {
            "type": "activity_completed",
            "instance": "i",
            "activity": "A",
            "attempt": 1,
            "output": {},
        }
        with pytest.raises(RecoveryError):
            ReplayCursor([rec, rec])


class TestCrashRecovery:
    def test_crash_before_any_step(self, store_dir):
        calls = {}
        engine = build_engine(store_dir, calls)
        iid = engine.start_process("P")
        engine.crash()

        engine2 = build_engine(store_dir, calls)
        engine2.recover()
        assert engine2.instance_state(iid) == "running"
        engine2.run()
        assert engine2.instance_state(iid) == "finished"
        assert calls == {"A": 1, "B": 1, "C": 1}

    @pytest.mark.parametrize("steps_before_crash", [1, 2])
    def test_crash_mid_process_resumes_without_rerunning(
        self, store_dir, steps_before_crash
    ):
        calls = {}
        engine = build_engine(store_dir, calls)
        iid = engine.start_process("P")
        for _ in range(steps_before_crash):
            engine.step()
        engine.crash()

        engine2 = build_engine(store_dir, calls)
        replayed = engine2.recover()
        assert replayed == steps_before_crash
        engine2.run()
        assert engine2.instance_state(iid) == "finished"
        # Every program ran exactly once in total: completed work was
        # *not* re-executed, pending work ran after recovery.
        assert calls == {"A": 1, "B": 1, "C": 1}

    def test_crash_after_finish_recovers_finished(self, store_dir):
        calls = {}
        engine = build_engine(store_dir, calls)
        result = engine.run_process("P")
        engine.crash()

        engine2 = build_engine(store_dir, calls)
        engine2.recover()
        assert engine2.instance_state(result.instance_id) == "finished"
        assert calls == {"A": 1, "B": 1, "C": 1}

    def test_crashed_engine_refuses_work(self, store_dir):
        calls = {}
        engine = build_engine(store_dir, calls)
        engine.start_process("P")
        engine.crash()
        with pytest.raises(NavigationError):
            engine.run()
        with pytest.raises(NavigationError):
            engine.start_process("P")

    def test_crashed_engine_refuses_clock_advance(self, store_dir):
        # Regression: a crashed engine must not keep advancing its
        # clock (and raising deadline notifications) as if alive.
        calls = {}
        engine = build_engine(store_dir, calls)
        engine.start_process("P")
        engine.advance_clock(1.0)
        engine.crash()
        with pytest.raises(NavigationError):
            engine.advance_clock(1.0)
        assert engine.clock == 1.0

    def test_recovered_outputs_match_pre_crash(self, store_dir):
        calls = {}
        engine = build_engine(store_dir, calls)
        iid = engine.start_process("P")
        engine.step()
        pre = engine.navigator.instance(iid).activity("A").output.to_dict()
        engine.crash()

        engine2 = build_engine(store_dir, calls)
        engine2.recover()
        post = engine2.navigator.instance(iid).activity("A").output.to_dict()
        assert post == pre

    def test_recovery_without_journal_rejected(self):
        engine = Engine()
        with pytest.raises(NavigationError):
            engine.recover()

    def test_recovery_with_wrong_definitions_detected(self, store_dir):
        calls = {}
        engine = build_engine(store_dir, calls)
        # Crash with the instance still live: a finished one is
        # archived, and recovery never re-navigates archived roots.
        engine.start_process("P")
        engine.step()
        engine.crash()

        # Re-register a *different* P whose activity names don't match.
        engine2 = Engine(store=DurableStore(store_dir))
        engine2.register_program("px", lambda ctx: 0)
        d = ProcessDefinition("P")
        d.add_activity(Activity("Other", program="px"))
        engine2.register_definition(d)
        with pytest.raises(RecoveryError):
            engine2.recover()

    def test_multiple_instances_recovered(self, store_dir):
        calls = {}
        engine = build_engine(store_dir, calls)
        i1 = engine.start_process("P")
        i2 = engine.start_process("P")
        engine.run()
        i3 = engine.start_process("P")
        engine.step()
        engine.crash()

        engine2 = build_engine(store_dir, calls)
        engine2.recover()
        assert engine2.instance_state(i1) == "finished"
        assert engine2.instance_state(i2) == "finished"
        assert engine2.instance_state(i3) == "running"
        engine2.run()
        assert engine2.instance_state(i3) == "finished"

    def test_new_instances_after_recovery_get_fresh_ids(self, store_dir):
        calls = {}
        engine = build_engine(store_dir, calls)
        i1 = engine.start_process("P")
        engine.run()
        engine.crash()

        engine2 = build_engine(store_dir, calls)
        engine2.recover()
        i2 = engine2.start_process("P")
        assert i2 != i1
        engine2.run()
        assert engine2.instance_state(i2) == "finished"

    def test_suspended_instance_recovers_suspended(self, store_dir):
        calls = {}
        engine = build_engine(store_dir, calls)
        iid = engine.start_process("P")
        engine.step()
        engine.suspend(iid)
        engine.crash()

        engine2 = build_engine(store_dir, calls)
        engine2.recover()
        assert engine2.instance_state(iid) == "suspended"
        engine2.resume(iid)
        engine2.run()
        assert engine2.instance_state(iid) == "finished"
        assert calls == {"A": 1, "B": 1, "C": 1}


class TestCrashRecoveryWithBlocks:
    def test_block_child_recovered(self, store_dir):
        calls = {"inner": 0}

        def build(path):
            engine = Engine(store=DurableStore(path))

            def inner(ctx):
                calls["inner"] += 1
                return 0

            engine.register_program("inner", inner)
            engine.register_program("after", lambda ctx: 0)
            blk = ProcessDefinition("Blk")
            blk.add_activity(Activity("I1", program="inner"))
            blk.add_activity(Activity("I2", program="inner"))
            blk.connect("I1", "I2")
            outer = ProcessDefinition("Outer")
            outer.add_activity(
                Activity("B", kind=ActivityKind.BLOCK, block=blk)
            )
            outer.add_activity(Activity("After", program="after"))
            outer.connect("B", "After")
            engine.register_definition(outer)
            return engine

        engine = build(store_dir)
        iid = engine.start_process("Outer")
        engine.step()  # executes the block activity (starts the child)
        engine.step()  # runs I1 inside the block
        assert calls["inner"] == 1
        engine.crash()

        engine2 = build(store_dir)
        engine2.recover()
        engine2.run()
        assert engine2.instance_state(iid) == "finished"
        assert calls["inner"] == 2  # I2 ran post-recovery; I1 not re-run

    def test_rescheduled_attempts_replay_exactly(self, store_dir):
        # An activity that looped twice before the crash must replay
        # both attempts and keep the final output.
        state = {"n": 0}

        def build(path):
            engine = Engine(store=DurableStore(path))

            def flaky(ctx):
                state["n"] += 1
                return 0 if state["n"] >= 3 else 1

            engine.register_program("flaky", flaky)
            engine.register_program("after", lambda ctx: 0)
            d = ProcessDefinition("P")
            d.add_activity(
                Activity("T", program="flaky", exit_condition="RC = 0")
            )
            d.add_activity(Activity("After", program="after"))
            d.connect("T", "After")
            engine.register_definition(d)
            return engine

        engine = build(store_dir)
        iid = engine.start_process("P")
        engine.step()  # attempt 1, rc 1
        engine.step()  # attempt 2, rc 1
        assert state["n"] == 2
        engine.crash()

        engine2 = build(store_dir)
        engine2.recover()
        engine2.run()
        assert engine2.instance_state(iid) == "finished"
        assert state["n"] == 3  # attempts 1-2 replayed, attempt 3 live
