"""Chaos schedules for cross-activity transaction scopes.

The invariant under test is **scope atomicity**: whatever interleaving
of program faults, journal faults (mid-scope engine crashes) and
commit-point faults a seed produces, a converged run ends with either
*all* scope writes committed or *none* of them visible — and the fault
trace, outcome and database state are bit-for-bit identical when the
same seed is replayed from scratch.
"""

import pytest

from repro.core.saga_translator import SAGA_ABORT_RC
from repro.core.sagas import SagaSpec, SagaStep
from repro.core.scoped import (
    SCOPE_COMMIT_PROGRAM,
    register_scoped_saga_programs,
    translate_scoped_saga,
    workflow_scoped_outcome,
)
from repro.resilience import FaultInjector, FaultRule, RetryPolicy, chaos_rules
from repro.store import DurableStore
from repro.tx import ScopeManager, SimDatabase
from repro.wfms.engine import Engine
from tests.chaos_harness import converge_engine, replay_twice

SCOPE_SEEDS = range(10)
COMMIT_FAULT_SEEDS = range(4)

STEPS = ("t1", "t2", "t3", "t4")
SEED_STATE = {name: 0 for name in STEPS}
COMMITTED_STATE = {name: 1 for name in STEPS}


def scope_write(key, value):
    def body(scope):
        scope.write(key, value)

    return body


def run_scope_chaos(seed, directory, *, extra_rules=(), optional=()):
    """One scoped saga under chaos; returns (outcome, db state, active
    transactions, fault trace).

    The database and the scope manager survive engine rebuilds (they
    model an external resource manager); the engine's journal drives
    workflow replay, ``ScopeManager.recover`` rolls torn scopes back.
    """
    directory.mkdir(parents=True, exist_ok=True)
    spec = SagaSpec("chaos", [SagaStep(n) for n in STEPS])
    translation = translate_scoped_saga(spec, optional_steps=optional)
    db = SimDatabase()
    setup = db.begin()
    for name in STEPS:
        setup.write(name, 0)
    setup.commit()
    manager = ScopeManager(db)
    bodies = {name: scope_write(name, 1) for name in STEPS}
    injector = FaultInjector(
        chaos_rules(
            program_match="sc_txn_*",
            program_p=0.25,
            journal_p=0.05,
            max_fires=3,
        )
        + list(extra_rules),
        seed=seed,
    )
    manager.injector = injector
    def build():
        engine = Engine(
            store=DurableStore(directory / "scoped"), fault_injector=injector
        )
        engine.register_definition(translation.process)
        register_scoped_saga_programs(engine, translation, bodies, manager)
        for step in spec.steps:
            engine.set_retry(
                "sc_%s" % step.program,
                RetryPolicy(
                    2,
                    backoff="fixed",
                    base_delay=1.0,
                    escalate_rc=SAGA_ABORT_RC,
                ),
            )
        engine.set_retry(
            SCOPE_COMMIT_PROGRAM,
            RetryPolicy(
                2, backoff="fixed", base_delay=1.0, escalate_rc=SAGA_ABORT_RC
            ),
        )
        return engine

    # a mid-scope engine crash: rebuild, roll torn scopes back, replay
    # the durable journal prefix
    engine, iid = converge_engine(
        build, lambda e: e.start_process(translation.process.name)
    )
    assert engine.instance_state(iid) == "finished"
    outcome = workflow_scoped_outcome(engine, translation, iid)
    engine.close()
    return outcome, db.snapshot(), db.active_transactions(), injector.trace()


def assert_scope_atomicity(outcome, state, active, *, optional=()):
    """All-or-nothing: no converged state shows a partial scope."""
    assert active == []  # nothing torn or leaked
    if outcome.committed:
        expected = dict(COMMITTED_STATE)
        for name in outcome.partially_rolled_back:
            assert name in optional
            expected[name] = 0  # its failure cost exactly its writes
        assert state == expected
    else:
        assert outcome.rolled_back
        assert state == SEED_STATE


@pytest.mark.parametrize("seed", SCOPE_SEEDS)
def test_scope_atomicity_under_chaos(seed, tmp_path):
    """Program faults + journal faults (mid-scope crashes): the scope
    is atomic and the chaos is replayable bit-for-bit."""
    outcome, state, active, __ = replay_twice(
        lambda d: run_scope_chaos(seed, d), tmp_path
    )
    assert_scope_atomicity(outcome, state, active)


@pytest.mark.parametrize("seed", COMMIT_FAULT_SEEDS)
def test_scope_commit_fault_is_atomic(seed, tmp_path):
    """A fault at the commit point (``scope.commit`` site, before the
    COMMIT record) is retried or escalated into rollback — never a
    partial commit.  The scheduled rule consumes no RNG, so the rest
    of the chaos schedule is unchanged."""
    tear = FaultRule("scope.commit", schedule={1})
    outcome, state, active, faults = replay_twice(
        lambda d: run_scope_chaos(seed, d, extra_rules=[tear]), tmp_path
    )
    assert_scope_atomicity(outcome, state, active)
    assert len([f for f in faults if f[0] == "scope.commit"]) <= 1


@pytest.mark.parametrize("seed", SCOPE_SEEDS)
def test_savepoint_chaos_preserves_atomicity(seed, tmp_path):
    """With an optional step (savepoint-partial-rollback on its
    failure edge), chaos may cost the optional step's writes but never
    tears the scope."""
    outcome, state, active, __ = replay_twice(
        lambda d: run_scope_chaos(seed, d, optional=("t3",)), tmp_path
    )
    assert_scope_atomicity(outcome, state, active, optional=("t3",))


def test_scope_timeout_under_chaos_is_atomic(tmp_path):
    """A deterministic logical-clock timeout mid-chain rolls the whole
    scope back; convergence still holds under journal faults."""
    spec = SagaSpec("timed", [SagaStep(n) for n in STEPS])
    translation = translate_scoped_saga(spec, timeout=3)
    db = SimDatabase()
    setup = db.begin()
    for name in STEPS:
        setup.write(name, 0)
    setup.commit()
    manager = ScopeManager(db)
    bodies = {name: scope_write(name, 1) for name in STEPS}
    engine = Engine()
    engine.register_definition(translation.process)
    register_scoped_saga_programs(engine, translation, bodies, manager)
    result = engine.run_process(translation.process.name)
    assert result.finished
    outcome = workflow_scoped_outcome(
        engine, translation, result.instance_id
    )
    assert outcome.rolled_back and not outcome.committed
    assert db.snapshot() == SEED_STATE
    assert db.active_transactions() == []
