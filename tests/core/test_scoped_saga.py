"""Scoped saga / pivot chain translations: structure, execution, and
behavioural equivalence with the per-activity (Figure 2) saga."""

import pytest

from repro.errors import SpecificationError, TransactionAborted
from repro.tx import (
    FailNTimes,
    IsolationLevel,
    ScopeManager,
    SimDatabase,
    Subtransaction,
)
from repro.tx.subtransaction import write_value
from repro.tx.failures import AbortScript
from repro.wfms.engine import Engine
from repro.wfms.model import StartCondition
from repro.core.bindings import register_programs
from repro.core.sagas import SagaSpec, SagaStep
from repro.core.saga_translator import translate_saga
from repro.core.scoped import (
    register_pivot_chain_programs,
    register_scoped_saga_programs,
    translate_pivot_chain,
    translate_scoped_saga,
    workflow_scoped_outcome,
)


def scope_write(key, value):
    def body(scope):
        scope.write(key, value)

    return body


def scope_fail(key, value):
    """Write, then abort — the failure the scope must undo."""

    def body(scope):
        scope.write(key, value)
        raise TransactionAborted("injected", reason="injected")

    return body


def run_scoped(spec, bodies, **kwargs):
    db = SimDatabase()
    _seed_zero(db, spec)
    manager = ScopeManager(db)
    translation = translate_scoped_saga(spec, **kwargs)
    engine = Engine()
    engine.register_definition(translation.process)
    register_scoped_saga_programs(engine, translation, bodies, manager)
    result = engine.run_process(translation.process.name)
    assert result.finished
    outcome = workflow_scoped_outcome(engine, translation, result.instance_id)
    return outcome, db


def run_per_activity(spec, abort_at=None):
    """The Figure 2 baseline: one subtransaction per activity, with
    compensations writing the seed value back."""
    db = SimDatabase()
    _seed_zero(db, spec)
    actions, comps = {}, {}
    for step in spec.steps:
        sub = Subtransaction(step.name, db, write_value(step.name, 1))
        if step.name == abort_at:
            sub.policy = AbortScript([1])
        actions[step.name] = sub
        comps[step.name] = Subtransaction(
            "c" + step.name, db, write_value(step.name, 0)
        )
    translation = translate_saga(spec)
    engine = Engine()
    register_programs(engine, translation, actions, comps)
    engine.register_definition(translation.process)
    result = engine.run_process(translation.process_name)
    assert result.finished
    return db


def _seed_zero(db, spec):
    setup = db.begin()
    for step in spec.steps:
        setup.write(step.name, 0)
    setup.commit()


SPEC = SagaSpec(
    "trip", [SagaStep("t1"), SagaStep("t2"), SagaStep("t3"), SagaStep("t4")]
)


class TestStructure:
    def test_shape(self):
        translation = translate_scoped_saga(SPEC, optional_steps=("t3",))
        process = translation.process
        assert set(process.activities) == {
            "Begin", "t1", "t2", "t3", "t4", "SP_t3", "RB_t3",
            "Commit", "Rollback",
        }
        # the step after an optional step is an OR-join.
        assert (
            process.activity("t4").start_condition is StartCondition.ANY
        )
        assert (
            process.activity("Rollback").start_condition is StartCondition.ANY
        )

    def test_scope_handle_fans_out_from_begin(self):
        translation = translate_scoped_saga(SPEC)
        process = translation.process
        targets = {
            c.target
            for c in process.data_connectors
            if c.source == "Begin" and ("Scope", "Scope") in c.mappings
        }
        assert targets == {"t1", "t2", "t3", "t4", "Commit", "Rollback"}

    def test_rejects_unknown_optional_step(self):
        with pytest.raises(SpecificationError):
            translate_scoped_saga(SPEC, optional_steps=("ghost",))

    def test_rejects_nonlinear_saga(self):
        spec = SagaSpec(
            "dag",
            [SagaStep("a"), SagaStep("b"), SagaStep("c")],
            order=[("a", "b"), ("a", "c")],
        )
        with pytest.raises(SpecificationError):
            translate_scoped_saga(spec)


class TestExecution:
    def test_all_commit(self):
        bodies = {s.name: scope_write(s.name, 1) for s in SPEC.steps}
        outcome, db = run_scoped(SPEC, bodies)
        assert outcome.committed and not outcome.rolled_back
        assert outcome.executed == ["t1", "t2", "t3", "t4"]
        assert db.snapshot() == {"t1": 1, "t2": 1, "t3": 1, "t4": 1}
        assert db.active_transactions() == []

    def test_mandatory_failure_rolls_everything_back(self):
        bodies = {s.name: scope_write(s.name, 1) for s in SPEC.steps}
        bodies["t3"] = scope_fail("t3", 1)
        outcome, db = run_scoped(SPEC, bodies)
        assert outcome.rolled_back and not outcome.committed
        assert db.snapshot() == {"t1": 0, "t2": 0, "t3": 0, "t4": 0}
        assert db.active_transactions() == []

    def test_optional_failure_is_absorbed_by_savepoint(self):
        bodies = {s.name: scope_write(s.name, 1) for s in SPEC.steps}
        bodies["t3"] = scope_fail("t3", 1)
        outcome, db = run_scoped(SPEC, bodies, optional_steps=("t3",))
        assert outcome.committed
        assert outcome.partially_rolled_back == ["t3"]
        assert db.snapshot() == {"t1": 1, "t2": 1, "t3": 0, "t4": 1}

    def test_read_committed_scope_commits(self):
        bodies = {s.name: scope_write(s.name, 1) for s in SPEC.steps}
        outcome, db = run_scoped(
            SPEC, bodies, isolation=IsolationLevel.READ_COMMITTED
        )
        assert outcome.committed
        assert db.snapshot() == {"t1": 1, "t2": 1, "t3": 1, "t4": 1}

    def test_scope_timeout_routes_to_rollback(self):
        bodies = {s.name: scope_write(s.name, 1) for s in SPEC.steps}
        outcome, db = run_scoped(SPEC, bodies, timeout=3)
        assert outcome.rolled_back and not outcome.committed
        assert db.snapshot() == {"t1": 0, "t2": 0, "t3": 0, "t4": 0}
        assert db.active_transactions() == []


class TestEquivalence:
    """The acceptance bar: scoped and per-activity executions agree on
    the final database state."""

    def test_committed_states_agree(self):
        bodies = {s.name: scope_write(s.name, 1) for s in SPEC.steps}
        __, scoped_db = run_scoped(SPEC, bodies)
        baseline_db = run_per_activity(SPEC)
        assert scoped_db.snapshot() == baseline_db.snapshot()

    def test_aborted_states_agree(self):
        # Per-activity: t3 aborts, t1/t2 are compensated back to 0.
        # Scoped: t3's failure rolls the one transaction back.
        bodies = {s.name: scope_write(s.name, 1) for s in SPEC.steps}
        bodies["t3"] = scope_fail("t3", 1)
        __, scoped_db = run_scoped(SPEC, bodies)
        baseline_db = run_per_activity(SPEC, abort_at="t3")
        assert scoped_db.snapshot() == baseline_db.snapshot()

    def test_savepoint_partial_rollback_equals_saga_without_step(self):
        # Scoped with optional t3 failing == per-activity saga that
        # never had t3 (its failure costs exactly its own writes).
        bodies = {s.name: scope_write(s.name, 1) for s in SPEC.steps}
        bodies["t3"] = scope_fail("t3", 1)
        __, scoped_db = run_scoped(SPEC, bodies, optional_steps=("t3",))
        reduced = SagaSpec(
            "trip", [SagaStep("t1"), SagaStep("t2"), SagaStep("t4")]
        )
        baseline_db = run_per_activity(reduced)
        snapshot = scoped_db.snapshot()
        snapshot.pop("t3")  # the seed value; absent from the reduced saga
        assert snapshot == baseline_db.snapshot()


class TestPivotChain:
    def build(self, retriable_failures=0, fail_scoped=False):
        db = SimDatabase()
        manager = ScopeManager(db)
        translation = translate_pivot_chain(
            "order", ["reserve", "charge"], ["notify"]
        )
        engine = Engine()
        engine.register_definition(translation.process)
        bodies = {
            "reserve": scope_write("reserved", 1),
            "charge": (
                scope_fail("charged", 1)
                if fail_scoped
                else scope_write("charged", 1)
            ),
        }
        notify = Subtransaction(
            "notify",
            db,
            write_value("notified", 1),
            policy=FailNTimes(retriable_failures),
        )
        register_pivot_chain_programs(
            engine, translation, bodies, {"notify": notify}, manager
        )
        result = engine.run_process(translation.process.name)
        assert result.finished
        return engine, result, db, notify

    def test_happy_path(self):
        engine, result, db, notify = self.build()
        assert engine.output(result.instance_id)["Committed"] == 1
        assert db.snapshot() == {
            "reserved": 1, "charged": 1, "notified": 1,
        }

    def test_retriable_step_retries_past_the_pivot(self):
        engine, result, db, notify = self.build(retriable_failures=3)
        assert engine.output(result.instance_id)["Committed"] == 1
        assert notify.attempts == 4
        assert db.get("notified") == 1

    def test_failure_before_pivot_rolls_back_and_skips_suffix(self):
        engine, result, db, notify = self.build(fail_scoped=True)
        output = engine.output(result.instance_id)
        assert output["Committed"] == 0
        assert output["RolledBack"] == 1
        assert db.snapshot() == {}
        assert notify.attempts == 0

    def test_rejects_overlapping_steps(self):
        with pytest.raises(SpecificationError):
            translate_pivot_chain("x", ["a"], ["a"])

    def test_rejects_empty_prefix(self):
        with pytest.raises(SpecificationError):
            translate_pivot_chain("x", [], ["a"])
