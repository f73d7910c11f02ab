"""Tests for parallel/generalised saga translation (guarded
construction) — §4.1's "the same ideas apply to the more general
case"."""

import pytest

from repro.store import DurableStore
from repro.tx import AbortScript, FailNTimes, SimDatabase
from repro.wfms.engine import Engine
from repro.core.parallel_saga import translate_parallel_saga
from repro.core.bindings import register_programs, workflow_outcome
from repro.core.sagas import NativeSagaExecutor, SagaSpec, SagaStep
from repro.workloads.generator import saga_bindings

DIAMOND = SagaSpec(
    "diamond",
    [SagaStep(n) for n in "abcd"],
    order=[("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")],
)


def run_workflow(spec, policies):
    db = SimDatabase()
    actions, comps = saga_bindings(spec, db, policies=dict(policies))
    translation = translate_parallel_saga(spec)
    engine = Engine()
    register_programs(engine, translation, actions, comps)
    engine.register_definition(translation.process)
    result = engine.run_process(translation.process_name)
    assert result.finished
    outcome = workflow_outcome(engine, translation, result.instance_id)
    return engine, outcome, db


class TestDAGSagas:
    def test_all_commit(self):
        engine, outcome, db = run_workflow(DIAMOND, {})
        assert outcome.committed
        assert outcome.executed == ["a", "b", "c", "d"]
        assert outcome.compensated == []

    def test_root_abort_nothing_to_compensate(self):
        engine, outcome, db = run_workflow(DIAMOND, {"a": AbortScript([1])})
        assert not outcome.committed
        assert outcome.executed == []
        assert outcome.compensated == []
        assert db.snapshot() == {}

    def test_branch_abort_sibling_completes_then_compensates(self):
        # Workflow semantics: the parallel branch c finishes, then both
        # a and c are compensated (b rolled itself back, d never ran).
        engine, outcome, db = run_workflow(DIAMOND, {"b": AbortScript([1])})
        assert not outcome.committed
        assert set(outcome.executed) == {"a", "c"}
        assert set(outcome.compensated) == {"a", "c"}
        assert db.snapshot() == {"a": 0, "c": 0}

    def test_join_abort_compensates_all(self):
        engine, outcome, db = run_workflow(DIAMOND, {"d": AbortScript([1])})
        assert set(outcome.compensated) == {"a", "b", "c"}
        # Reverse topological order: a is compensated last.
        assert outcome.compensated[-1] == "a"

    def test_compensation_order_is_reverse_topological(self):
        engine, outcome, db = run_workflow(DIAMOND, {"d": AbortScript([1])})
        order = outcome.compensated
        assert order.index("b") < order.index("a")
        assert order.index("c") < order.index("a")

    def test_guarded_compensations_retried(self):
        db = SimDatabase()
        actions, comps = saga_bindings(
            DIAMOND, db, policies={"d": AbortScript([1])}
        )
        comps["a"].policy = FailNTimes(2)
        translation = translate_parallel_saga(DIAMOND)
        engine = Engine()
        register_programs(engine, translation, actions, comps)
        engine.register_definition(translation.process)
        result = engine.run_process(translation.process_name)
        outcome = workflow_outcome(engine, translation, result.instance_id)
        assert "a" in outcome.compensated
        assert comps["a"].attempts == 3


class TestLinearEquivalence:
    """On linear sagas, the guarded construction behaves exactly like
    Figure 2's dead-path construction and the native executor."""

    @pytest.mark.parametrize("abort_index", [None, 1, 2, 3])
    def test_linear_parity_with_native(self, abort_index):
        spec = SagaSpec("lin", [SagaStep("t%d" % i) for i in (1, 2, 3)])
        policies = (
            {"t%d" % abort_index: AbortScript([1])} if abort_index else {}
        )
        native_db = SimDatabase()
        actions, comps = saga_bindings(spec, native_db, policies=dict(policies))
        native = NativeSagaExecutor(spec, actions, comps).run()
        engine, outcome, wf_db = run_workflow(spec, policies)
        assert outcome.committed == native.committed
        assert outcome.executed == native.executed
        assert outcome.compensated == native.compensated
        assert wf_db.snapshot() == native_db.snapshot()

    def test_committed_guarded_saga_skips_compensation_block(self):
        spec = SagaSpec("lin", [SagaStep("t1"), SagaStep("t2")])
        engine, outcome, db = run_workflow(spec, {})
        assert outcome.committed
        # The compensation block was dead-path eliminated entirely.
        instance_id = [
            i.instance_id
            for i in engine.navigator.instances()
            if i.is_root
        ][0]
        assert "Compensation" in engine.audit.dead_activities(instance_id)


class TestStructure:
    def test_forward_block_mirrors_dag(self):
        translation = translate_parallel_saga(DIAMOND)
        edges = [
            (c.source, c.target)
            for c in translation.forward_block.control_connectors
        ]
        assert set(edges) == {("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")}

    def test_compensation_block_reverses_dag(self):
        translation = translate_parallel_saga(DIAMOND)
        edges = [
            (c.source, c.target)
            for c in translation.compensation_block.control_connectors
            if c.source != "NOP"
        ]
        assert set(edges) == {
            ("Comp_b", "Comp_a"),
            ("Comp_c", "Comp_a"),
            ("Comp_d", "Comp_b"),
            ("Comp_d", "Comp_c"),
        }

    def test_nop_feeds_forward_sinks(self):
        translation = translate_parallel_saga(DIAMOND)
        nop_targets = [
            c.target
            for c in translation.compensation_block.control_connectors
            if c.source == "NOP"
        ]
        assert nop_targets == ["Comp_d"]  # d is the only forward sink

    def test_compensation_gate_tests_all_states(self):
        translation = translate_parallel_saga(DIAMOND)
        gate = translation.process.control_connectors[0]
        for name in "abcd":
            assert "State_%s = 0" % name in gate.condition.source


class TestStoreBackedEngine:
    """A store-backed engine archives and evicts a finished root: the
    outcome must come from what the engine still answers for it."""

    @pytest.mark.parametrize("abort", [None, "a", "b", "c"])
    def test_outcome_same_with_and_without_store(self, tmp_path, abort):
        spec = SagaSpec(
            "fork",
            [SagaStep(n) for n in "abc"],
            order=[("a", "b"), ("a", "c")],
        )
        outcomes = []
        for engine in (Engine(), Engine(store=DurableStore(tmp_path))):
            policies = {abort: AbortScript([1])} if abort else {}
            actions, comps = saga_bindings(
                spec, SimDatabase(), policies=policies
            )
            translation = translate_parallel_saga(spec)
            register_programs(engine, translation, actions, comps)
            engine.register_definition(translation.process)
            result = engine.run_process(translation.process_name)
            outcomes.append(
                workflow_outcome(engine, translation, result.instance_id)
            )
        assert outcomes[0] == outcomes[1]
        if abort == "c":
            assert outcomes[1].compensated == ["b", "a"]


class TestCompensateCompleted:
    """``fmtm.translate(..., compensate_completed=True)`` compensates a
    committed DAG saga too, as the native executor does."""

    def test_every_outcome_vector_matches_native(self):
        from repro.core.fmtm import translate
        from tests.exhaustive import (
            SIBLING_ORDER,
            SIBLINGS_FINISH,
            Case,
            divergence,
            guarantee_violation,
            walk,
        )

        case = Case(
            "diamond",
            DIAMOND,
            translate(DIAMOND, compensate_completed=True),
            compensate_completed=True,
        )
        leaves = walk(case)
        # As the diamond walk in test_exhaustive.py, except that the
        # committed saga is compensated too: 2^4 leaves instead of 1.
        assert len(leaves) == 1 + (2 ** 4 + 2 ** 3) + 2 * 2 ** 2 + 2
        seen = set()
        for leaf in leaves:
            for run in (leaf.native, leaf.workflow):
                assert guarantee_violation(case, run) is None, leaf.decisions
            seen.add(divergence(case, leaf))
        assert seen == {None, SIBLINGS_FINISH, SIBLING_ORDER}
        committed = leaves[0].workflow
        assert committed.outcome["committed"]
        assert committed.outcome["compensated"] == ["d", "b", "c", "a"]
        assert committed.db == {n: 0 for n in "abcd"}
