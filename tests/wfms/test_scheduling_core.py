"""Tests for the indexed scheduling core: heap ready-queue dispatch
order, worklist index consistency, memoized semantic checks, and the
journal replay round-trip through the new queue."""

import pytest

from repro.errors import DefinitionError, NavigationError, WorklistError
from repro.store import DurableStore
from repro.wfms import (
    Activity,
    ActivityKind,
    DataType,
    Engine,
    ProcessDefinition,
    VariableDecl,
)
from repro.wfms.model import StaffAssignment, StartMode
from repro.wfms.organization import demo_organization
from repro.wfms.worklist import WorkItemState, WorklistManager


def recording_engine(**kwargs):
    engine = Engine(**kwargs)
    order = []

    def record(ctx):
        order.append((ctx.instance_id, ctx.activity))
        return 0

    engine.register_program("record", record)
    return engine, order


class TestDispatchDeterminism:
    def test_equal_priorities_dispatch_fifo(self):
        engine, order = recording_engine()
        d = ProcessDefinition("P")
        for name in ("A", "B", "C", "D"):
            d.add_activity(Activity(name, program="record"))
        engine.register_definition(d)
        iid = engine.start_process("P")
        engine.run()
        assert order == [(iid, n) for n in ("A", "B", "C", "D")]

    def test_priority_beats_arrival_ties_stay_fifo(self):
        engine, order = recording_engine()
        d = ProcessDefinition("P")
        d.add_activity(Activity("LowFirst", program="record", priority=1))
        d.add_activity(Activity("HighA", program="record", priority=5))
        d.add_activity(Activity("LowSecond", program="record", priority=1))
        d.add_activity(Activity("HighB", program="record", priority=5))
        engine.register_definition(d)
        iid = engine.start_process("P")
        engine.run()
        assert [a for __, a in order] == [
            "HighA", "HighB", "LowFirst", "LowSecond",
        ]

    def test_two_instances_interleave_by_arrival(self):
        engine, order = recording_engine()
        d = ProcessDefinition("P")
        d.add_activity(Activity("A", program="record"))
        d.add_activity(Activity("B", program="record"))
        engine.register_definition(d)
        i1 = engine.start_process("P")
        i2 = engine.start_process("P")
        engine.run()
        assert order == [(i1, "A"), (i1, "B"), (i2, "A"), (i2, "B")]

    def test_suspend_resume_requeues_as_fresh_arrival(self):
        # Work left ready while suspended re-enters the queue at resume
        # time: activities of the other instance that were queued while
        # it ran keep their earlier arrival slots.
        engine, order = recording_engine()
        d = ProcessDefinition("P")
        d.add_activity(Activity("A", program="record"))
        d.add_activity(Activity("B", program="record"))
        d.connect("A", "B")
        engine.register_definition(d)
        i1 = engine.start_process("P")
        engine.suspend(i1)
        i2 = engine.start_process("P")
        engine.run()  # drains i2 entirely; i1 suspended throughout
        assert engine.instance_state(i2) == "finished"
        assert order == [(i2, "A"), (i2, "B")]
        engine.resume(i1)
        engine.run()
        assert engine.instance_state(i1) == "finished"
        assert order == [(i2, "A"), (i2, "B"), (i1, "A"), (i1, "B")]

    def test_suspend_resume_preserves_priority_order(self):
        engine, order = recording_engine()
        d = ProcessDefinition("P")
        d.add_activity(Activity("Low", program="record", priority=1))
        d.add_activity(Activity("High", program="record", priority=9))
        engine.register_definition(d)
        iid = engine.start_process("P")
        engine.suspend(iid)
        engine.run()
        engine.resume(iid)
        engine.run()
        assert [a for __, a in order] == ["High", "Low"]
        # Each activity ran exactly once despite the resume re-queue.
        assert engine.audit.attempts(iid, "High") == 1
        assert engine.audit.attempts(iid, "Low") == 1

    def test_run_max_steps_not_consumed_by_stale_slots(self):
        # A run() with a tight-but-sufficient limit succeeds: the limit
        # counts executed activities, and quiescing exactly at the
        # limit is not a failure.
        engine, order = recording_engine()
        d = ProcessDefinition("P")
        for name in ("A", "B", "C"):
            d.add_activity(Activity(name, program="record"))
        engine.register_definition(d)
        # A suspended sibling instance contributes only dead slots.
        stale = engine.start_process("P")
        engine.suspend(stale)
        engine.start_process("P")
        assert engine.run(max_steps=3) == 3
        assert len(order) == 3

    def test_run_max_steps_still_guards_runaway_loops(self):
        engine = Engine()
        engine.register_program("loop", lambda ctx: 1)
        d = ProcessDefinition("P")
        d.add_activity(Activity("T", program="loop", exit_condition="RC = 0"))
        engine.register_definition(d)
        engine.start_process("P")
        with pytest.raises(NavigationError, match="quiesce"):
            engine.run(max_steps=10)

    def test_has_ready_work_discards_stale_slots(self):
        engine, __ = recording_engine()
        d = ProcessDefinition("P")
        d.add_activity(Activity("A", program="record"))
        engine.register_definition(d)
        iid = engine.start_process("P")
        assert engine.navigator.has_ready_work()
        engine.suspend(iid)
        assert not engine.navigator.has_ready_work()
        engine.resume(iid)
        assert engine.navigator.has_ready_work()
        engine.run()
        assert not engine.navigator.has_ready_work()


class TestWorklistIndexes:
    def offer_one(self, wm, activity="Act", eligible=("bob", "cleo")):
        return wm.offer("pi-1", activity, "P", list(eligible), now=0.0)

    def test_claim_release_withdraw_sequence(self):
        wm = WorklistManager()
        item = self.offer_one(wm)

        wm.claim(item.item_id, "bob")
        assert wm.worklist("bob") == []
        assert wm.worklist("cleo") == []
        assert wm.open_item_for("pi-1", "Act") is item

        wm.release(item.item_id)
        assert [i.item_id for i in wm.worklist("bob")] == [item.item_id]
        assert [i.item_id for i in wm.worklist("cleo")] == [item.item_id]
        assert wm.open_item_for("pi-1", "Act") is item

        wm.withdraw("pi-1", "Act")
        assert item.state is WorkItemState.WITHDRAWN
        assert wm.worklist("bob") == []
        assert wm.worklist("cleo") == []
        assert wm.open_item_for("pi-1", "Act") is None
        # History survives the withdrawal; claiming a withdrawn item fails.
        assert wm.items_for_instance("pi-1") == [item]
        with pytest.raises(WorklistError):
            wm.claim(item.item_id, "bob")

    def test_withdraw_of_claimed_item(self):
        wm = WorklistManager()
        item = self.offer_one(wm)
        wm.claim(item.item_id, "bob")
        wm.withdraw("pi-1", "Act")
        assert item.state is WorkItemState.WITHDRAWN
        assert wm.open_item_for("pi-1", "Act") is None
        with pytest.raises(WorklistError):
            wm.release(item.item_id)

    def test_completed_item_leaves_open_index_keeps_history(self):
        wm = WorklistManager()
        item = self.offer_one(wm)
        wm.claim(item.item_id, "bob")
        wm.complete(item.item_id)
        assert wm.open_item_for("pi-1", "Act") is None
        assert wm.items_for_instance("pi-1") == [item]
        assert wm.item(item.item_id) is item

    def test_per_slot_index_isolates_activities(self):
        wm = WorklistManager()
        first = self.offer_one(wm, activity="One")
        second = self.offer_one(wm, activity="Two")
        wm.withdraw("pi-1", "One")
        assert first.state is WorkItemState.WITHDRAWN
        assert second.state is WorkItemState.OFFERED
        assert wm.open_item_for("pi-1", "Two") is second
        assert [i.item_id for i in wm.worklist("bob")] == [second.item_id]

    def test_deadline_watch_follows_claim_and_release(self):
        wm = WorklistManager()
        item = wm.offer(
            "pi-1", "Act", "P", ["bob"], now=0.0,
            notify_after=5.0, notify_role="",
        )
        wm.claim(item.item_id, "bob")
        # Claimed items do not escalate.
        assert wm.check_deadlines(10.0, lambda r: []) == []
        wm.release(item.item_id)
        raised = wm.check_deadlines(10.0, lambda r: [])
        assert [n.item_id for n in raised] == [item.item_id]
        # Never raised twice.
        assert wm.check_deadlines(20.0, lambda r: []) == []

    def test_items_for_instance_keeps_offer_order(self):
        wm = WorklistManager()
        first = self.offer_one(wm, activity="One")
        second = self.offer_one(wm, activity="Two")
        wm.claim(second.item_id, "bob")
        wm.complete(second.item_id)
        assert wm.items_for_instance("pi-1") == [first, second]
        assert wm.items_for_instance("pi-ghost") == []

    def test_claim_release_withdraw_end_to_end(self):
        engine = Engine(organization=demo_organization())
        engine.register_program("noop", lambda ctx: 0)
        d = ProcessDefinition("P")
        d.add_activity(
            Activity(
                "M",
                program="noop",
                start_mode=StartMode.MANUAL,
                staff=StaffAssignment(roles=("clerk",)),
            )
        )
        engine.register_definition(d)
        iid = engine.start_process("P", starter="ada")
        engine.run()
        item = engine.worklist("bob")[0]
        engine.claim(item.item_id, "bob")
        engine.worklists.release(item.item_id)
        assert len(engine.worklist("cleo")) == 1
        engine.force_finish(iid, "M", return_code=0, user="ada")
        assert engine.worklist("bob") == []
        assert engine.worklist("cleo") == []
        assert item.state is WorkItemState.WITHDRAWN
        assert engine.instance_state(iid) == "finished"


class TestVerifyMemoization:
    def build(self):
        engine = Engine()
        engine.register_program("ok", lambda ctx: 0)
        child = ProcessDefinition("Child")
        child.add_activity(Activity("X", program="ok"))
        parent = ProcessDefinition("Parent")
        parent.add_activity(
            Activity("Call", kind=ActivityKind.PROCESS, subprocess="Child")
        )
        engine.register_definition(child)
        engine.register_definition(parent)
        return engine

    def test_verify_marks_whole_subtree(self):
        engine = self.build()
        engine.verify_executable("Parent")
        registry = engine._definitions
        assert registry.is_verified(("Parent", "1"))
        assert registry.is_verified(("Child", "1"))

    def test_definition_registration_invalidates(self):
        engine = self.build()
        engine.verify_executable("Parent")
        # A new Child version referencing a missing program must be
        # caught on the next start even though Parent verified before.
        bad = ProcessDefinition("Child", version="2")
        bad.add_activity(Activity("X", program="missing"))
        engine.register_definition(bad)
        assert not engine._definitions.is_verified(("Parent", "1"))
        with pytest.raises(Exception, match="missing"):
            engine.start_process("Parent")

    def test_program_registration_invalidates(self):
        engine = self.build()
        engine.verify_executable("Parent")
        engine.register_program("other", lambda ctx: 0)
        assert not engine._definitions.is_verified(("Parent", "1"))
        # Re-verification repopulates the memo.
        engine.verify_executable("Parent")
        assert engine._definitions.is_verified(("Parent", "1"))

    def test_repeated_starts_hit_the_memo(self):
        engine = self.build()
        calls = {"n": 0}
        original = engine._definitions.mark_verified

        def counting(key):
            calls["n"] += 1
            original(key)

        engine._definitions.mark_verified = counting
        for __ in range(5):
            engine.start_process("Parent")
        engine.run()
        assert calls["n"] == 2  # Parent + Child, once each


class TestSubprocessCycles:
    def test_self_reference_detected(self):
        engine = Engine()
        engine.register_program("ok", lambda ctx: 0)
        d = ProcessDefinition("Loop")
        d.add_activity(
            Activity("Again", kind=ActivityKind.PROCESS, subprocess="Loop")
        )
        engine.register_definition(d)
        with pytest.raises(DefinitionError, match="Loop -> Loop"):
            engine.verify_executable("Loop")

    def test_mutual_reference_detected(self):
        engine = Engine()
        a = ProcessDefinition("A")
        a.add_activity(
            Activity("CallB", kind=ActivityKind.PROCESS, subprocess="B")
        )
        b = ProcessDefinition("B")
        b.add_activity(
            Activity("CallA", kind=ActivityKind.PROCESS, subprocess="A")
        )
        engine.register_definition(a)
        engine.register_definition(b)
        with pytest.raises(DefinitionError, match="cyclic subprocess"):
            engine.verify_executable("A")

    def test_diamond_sharing_is_not_a_cycle(self):
        # Two parents referencing the same leaf subprocess is fine.
        engine = Engine()
        engine.register_program("ok", lambda ctx: 0)
        leaf = ProcessDefinition("Leaf")
        leaf.add_activity(Activity("X", program="ok"))
        mid1 = ProcessDefinition("Mid1")
        mid1.add_activity(
            Activity("C", kind=ActivityKind.PROCESS, subprocess="Leaf")
        )
        mid2 = ProcessDefinition("Mid2")
        mid2.add_activity(
            Activity("C", kind=ActivityKind.PROCESS, subprocess="Leaf")
        )
        top = ProcessDefinition("Top")
        top.add_activity(
            Activity("C1", kind=ActivityKind.PROCESS, subprocess="Mid1")
        )
        top.add_activity(
            Activity("C2", kind=ActivityKind.PROCESS, subprocess="Mid2")
        )
        for definition in (leaf, mid1, mid2, top):
            engine.register_definition(definition)
        engine.verify_executable("Top")  # must not raise


class TestReplayRoundTrip:
    def build(self, store_dir, calls):
        """Mixed-priority process with a loop and parallel branches."""
        engine = Engine(store=DurableStore(store_dir))

        def make(name, flaky=False):
            def program(ctx):
                calls.append(name)
                if flaky and ctx.attempt < 3:
                    return 1
                ctx.set_output("X", ctx.attempt)
                return 0

            return program

        engine.register_program("pSplit", make("Split"))
        engine.register_program("pHigh", make("High"))
        engine.register_program("pLow", make("Low", flaky=True))
        engine.register_program("pJoin", make("Join"))
        d = ProcessDefinition("P")
        spec = [VariableDecl("X", DataType.LONG)]
        d.add_activity(Activity("Split", program="pSplit", output_spec=spec))
        d.add_activity(
            Activity("High", program="pHigh", priority=9, output_spec=spec)
        )
        d.add_activity(
            Activity(
                "Low",
                program="pLow",
                priority=1,
                output_spec=spec,
                exit_condition="RC = 0",
            )
        )
        d.add_activity(Activity("Join", program="pJoin", output_spec=spec))
        d.connect("Split", "High")
        d.connect("Split", "Low")
        d.connect("High", "Join")
        d.connect("Low", "Join")
        engine.register_definition(d)
        return engine

    def test_crash_replay_preserves_dispatch_order(self, tmp_path):
        # Reference run, no crash.
        ref_calls = []
        ref = self.build(str(tmp_path / "ref"), ref_calls)
        ref_result = ref.run_process("P")
        assert ref_result.finished

        # Crashed run: stop halfway, recover into a fresh engine.
        calls = []
        path = str(tmp_path / "crash")
        engine = self.build(path, calls)
        iid = engine.start_process("P")
        engine.step()  # Split
        engine.step()  # High (priority 9 dispatches before Low)
        assert calls == ["Split", "High"]
        engine.crash()

        replayed_calls = []
        engine2 = self.build(path, replayed_calls)
        engine2.recover()
        engine2.run()
        assert engine2.instance_state(iid) == "finished"
        # Post-recovery execution = the not-yet-durable tail only.
        assert replayed_calls == ["Low", "Low", "Low", "Join"]
        # The audited termination order is identical to the reference.
        assert (
            engine2.execution_order(iid)
            == ref.execution_order(ref_result.instance_id)
        )
        assert engine2.output(iid) == ref.output(ref_result.instance_id)

    def test_priorities_respected_after_recovery(self, tmp_path):
        calls = []
        path = str(tmp_path / "j")
        engine = self.build(path, calls)
        iid = engine.start_process("P")
        engine.step()  # Split only
        engine.crash()

        post_calls = []
        engine2 = self.build(path, post_calls)
        engine2.recover()
        engine2.run()
        assert engine2.instance_state(iid) == "finished"
        # High (priority 9) dispatches before Low after the replayed
        # queue is rebuilt.
        assert post_calls[0] == "High"
