"""Tests for the Figure 2 saga → workflow translation and its
behavioural equivalence with the native executor."""

import pytest

from repro.errors import TranslationError
from repro.tx import AbortScript, FailNTimes, SimDatabase, Subtransaction
from repro.tx.subtransaction import write_value
from repro.wfms.engine import Engine
from repro.wfms.model import ActivityKind, StartCondition
from repro.core.bindings import register_programs, workflow_outcome
from repro.core.compblock import state_var
from repro.core.sagas import (
    NativeSagaExecutor,
    SagaSpec,
    SagaStep,
    verify_saga_guarantee,
)
from repro.core.saga_translator import translate_saga


def make_bindings(spec, db, abort_at=None, comp_policies=None):
    actions, comps = {}, {}
    for step in spec.steps:
        sub = Subtransaction(step.name, db, write_value(step.name, 1))
        if step.name == abort_at:
            sub.policy = AbortScript([1])
        actions[step.name] = sub
        comp = Subtransaction(
            "c" + step.name, db, write_value(step.name, 0)
        )
        if comp_policies and step.name in comp_policies:
            comp.policy = comp_policies[step.name]
        comps[step.name] = comp
    return actions, comps


def run_workflow_saga(spec, abort_at=None, comp_policies=None, **kwargs):
    db = SimDatabase()
    actions, comps = make_bindings(spec, db, abort_at, comp_policies)
    translation = translate_saga(spec, **kwargs)
    engine = Engine()
    register_programs(engine, translation, actions, comps)
    engine.register_definition(translation.process)
    result = engine.run_process(translation.process_name)
    assert result.finished
    return engine, translation, result, db, comps


class TestStructure:
    """The generated process has exactly Figure 2's shape."""

    @pytest.fixture
    def translation(self):
        spec = SagaSpec("demo", [SagaStep("t1"), SagaStep("t2"), SagaStep("t3")])
        return translate_saga(spec)

    def test_two_blocks(self, translation):
        process = translation.process
        assert set(process.activities) == {"Forward", "Compensation"}
        assert all(
            a.kind is ActivityKind.BLOCK for a in process.activities.values()
        )

    def test_forward_block_chains_on_success(self, translation):
        forward = translation.forward_block
        assert [
            (c.source, c.target, c.condition.source)
            for c in forward.control_connectors
        ] == [("t1", "t2", "RC = 0"), ("t2", "t3", "RC = 0")]

    def test_forward_records_state_per_activity(self, translation):
        # every step maps State -> State_<step> in the block output
        forward = translation.forward_block
        for step in ("t1", "t2", "t3"):
            assert any(
                c.source == step
                and ("State", state_var(step)) in c.mappings
                for c in forward.data_connectors
            )

    def test_compensation_gated_on_block_rc(self, translation):
        connector = translation.process.control_connectors[0]
        assert (connector.source, connector.target) == (
            "Forward",
            "Compensation",
        )
        assert connector.condition.source == "RC <> 0"

    def test_compensation_block_has_nop_trigger(self, translation):
        comp = translation.compensation_block
        assert "NOP" in comp.activities
        nop_edges = [
            c for c in comp.control_connectors if c.source == "NOP"
        ]
        assert len(nop_edges) == 3  # one per compensating activity

    def test_compensations_are_retried(self, translation):
        comp = translation.compensation_block
        for name in ("Comp_t1", "Comp_t2", "Comp_t3"):
            activity = comp.activity(name)
            assert activity.exit_condition.source == "RC = 0"
            assert activity.start_condition is StartCondition.ANY

    def test_reverse_chain_present(self, translation):
        comp = translation.compensation_block
        chain = [
            (c.source, c.target)
            for c in comp.control_connectors
            if c.source != "NOP"
        ]
        assert chain == [("Comp_t2", "Comp_t1"), ("Comp_t3", "Comp_t2")]

    def test_required_programs_listed(self, translation):
        assert set(translation.required_programs) == {
            "nop",
            "txn_t1", "txn_t2", "txn_t3",
            "comp_t1", "comp_t2", "comp_t3",
        }

    def test_compensate_completed_changes_gate(self):
        spec = SagaSpec("demo", [SagaStep("t1")])
        translation = translate_saga(spec, compensate_completed=True)
        assert (
            translation.process.control_connectors[0].condition.source
            == "TRUE"
        )

    def test_dag_saga_compensation_rejected(self):
        spec = SagaSpec(
            "dag",
            [SagaStep("a"), SagaStep("b"), SagaStep("c")],
            order=[("a", "b"), ("a", "c")],
        )
        with pytest.raises(TranslationError):
            translate_saga(spec)


class TestExecution:
    """The translated process honours the saga guarantee."""

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    def test_all_commit(self, n):
        spec = SagaSpec(
            "s", [SagaStep("t%d" % i) for i in range(1, n + 1)]
        )
        engine, tr, result, db, __ = run_workflow_saga(spec)
        out = workflow_outcome(engine, tr, result.instance_id)
        assert out.committed
        assert out.executed == [s.name for s in spec.steps]
        assert out.compensated == []

    @pytest.mark.parametrize("n,abort_index", [
        (1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (3, 3),
        (5, 1), (5, 3), (5, 5),
    ])
    def test_guarantee_at_every_abort_position(self, n, abort_index):
        spec = SagaSpec(
            "s", [SagaStep("t%d" % i) for i in range(1, n + 1)]
        )
        abort_at = "t%d" % abort_index
        engine, tr, result, db, __ = run_workflow_saga(spec, abort_at)
        out = workflow_outcome(engine, tr, result.instance_id)
        assert not out.committed
        assert verify_saga_guarantee(spec, out.executed, out.compensated)
        assert len(out.executed) == abort_index - 1
        # Database: all effects undone.
        for i in range(1, n + 1):
            assert db.get("t%d" % i) in (None, 0)

    def test_compensation_retried_in_workflow(self):
        spec = SagaSpec("s", [SagaStep("t1"), SagaStep("t2")])
        engine, tr, result, db, comps = run_workflow_saga(
            spec, abort_at="t2", comp_policies={"t1": FailNTimes(3)}
        )
        out = workflow_outcome(engine, tr, result.instance_id)
        assert out.compensated == ["t1"]
        assert comps["t1"].attempts == 4

    def test_compensate_completed_execution(self):
        spec = SagaSpec("s", [SagaStep("t1"), SagaStep("t2")])
        engine, tr, result, db, __ = run_workflow_saga(
            spec, compensate_completed=True
        )
        out = workflow_outcome(engine, tr, result.instance_id)
        assert out.executed == ["t1", "t2"]
        assert out.compensated == ["t2", "t1"]

    def test_process_output_exposes_states(self):
        spec = SagaSpec("s", [SagaStep("t1"), SagaStep("t2")])
        engine, tr, result, db, __ = run_workflow_saga(spec, abort_at="t2")
        assert result.output[state_var("t1")] == 1
        assert result.output[state_var("t2")] == 0


class TestParityWithNative:
    """Native executor and workflow implementation agree everywhere."""

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_parity_across_all_abort_positions(self, n):
        for abort_index in [None] + list(range(1, n + 1)):
            abort_at = "t%d" % abort_index if abort_index else None
            spec = SagaSpec(
                "s", [SagaStep("t%d" % i) for i in range(1, n + 1)]
            )
            native_db = SimDatabase()
            actions, comps = make_bindings(spec, native_db, abort_at)
            native = NativeSagaExecutor(spec, actions, comps).run()

            engine, tr, result, wf_db, __ = run_workflow_saga(spec, abort_at)
            wf = workflow_outcome(engine, tr, result.instance_id)

            assert native.committed == wf.committed, abort_at
            assert native.executed == wf.executed, abort_at
            assert native.compensated == wf.compensated, abort_at
            assert native_db.snapshot() == wf_db.snapshot(), abort_at
