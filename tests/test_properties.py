"""Property-based tests (hypothesis) over the core invariants.

Each property encodes one of the guarantees the paper's argument rests
on, checked over generated inputs rather than hand-picked examples:

* saga guarantee `T1..Tn` or `T1..Tj;Cj..C1` for *any* saga length and
  *any* failure pattern, in both the native executor and the workflow
  translation, with identical final database state;
* flexible transactions always terminate with either a complete path
  committed or everything compensated, again with native/workflow
  parity;
* the condition language and FDL round-trip losslessly;
* containers never violate their declared types;
* the navigator always quiesces with every activity terminated;
* lock release is complete (no lock leaks) and WAL restart recovery is
  idempotent.
"""

from __future__ import annotations

import string

from hypothesis import given, settings, strategies as st

from repro.fdl import export_definition, import_text
from repro.tx import SimDatabase, Subtransaction
from repro.tx.failures import AbortScript
from repro.tx.lockmgr import LockManager, LockMode
from repro.tx.subtransaction import write_value
from repro.wfms import Activity, Engine, ProcessDefinition
from repro.wfms.conditions import parse_condition
from repro.core.bindings import register_programs, workflow_outcome
from repro.core.flexible import NativeFlexibleExecutor
from repro.core.flexible_translator import translate_flexible
from repro.core.sagas import (
    NativeSagaExecutor,
    SagaSpec,
    SagaStep,
    verify_saga_guarantee,
)
from repro.core.saga_translator import translate_saga
from repro.core.wellformed import well_formedness_violations
from repro.workloads.generator import (
    flexible_bindings,
    random_dag_process,
    random_flexible_spec,
    saga_bindings,
)

names = st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=8)


# ---------------------------------------------------------------------------
# Saga guarantee
# ---------------------------------------------------------------------------

@st.composite
def saga_scenarios(draw):
    length = draw(st.integers(min_value=1, max_value=8))
    # Abort pattern: per-step set of failing attempt numbers (attempt 1
    # only — sagas run each step once).
    aborts = draw(
        st.lists(st.booleans(), min_size=length, max_size=length)
    )
    return length, aborts


@given(saga_scenarios())
@settings(max_examples=60, deadline=None)
def test_saga_guarantee_native_and_workflow(scenario):
    length, aborts = scenario
    spec = SagaSpec(
        "s", [SagaStep("t%02d" % i) for i in range(1, length + 1)]
    )
    policies = {
        "t%02d" % (i + 1): AbortScript([1])
        for i, fails in enumerate(aborts)
        if fails
    }
    native_db = SimDatabase()
    actions, comps = saga_bindings(spec, native_db, policies=dict(policies))
    native = NativeSagaExecutor(spec, actions, comps).run()
    assert verify_saga_guarantee(spec, native.executed, native.compensated)

    wf_db = SimDatabase()
    actions2, comps2 = saga_bindings(spec, wf_db, policies=dict(policies))
    translation = translate_saga(spec)
    engine = Engine()
    register_programs(engine, translation, actions2, comps2)
    engine.register_definition(translation.process)
    result = engine.run_process(translation.process_name)
    assert result.finished
    wf = workflow_outcome(engine, translation, result.instance_id)
    assert verify_saga_guarantee(spec, wf.executed, wf.compensated)
    assert wf.executed == native.executed
    assert wf.compensated == native.compensated
    assert wf_db.snapshot() == native_db.snapshot()


# ---------------------------------------------------------------------------
# Flexible transactions
# ---------------------------------------------------------------------------

@given(
    branches=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=10_000),
    abort_probability=st.sampled_from([0.0, 0.2, 0.5]),
)
@settings(max_examples=40, deadline=None)
def test_flexible_termination_and_parity(branches, seed, abort_probability):
    spec = random_flexible_spec(branches=branches, seed=seed)
    assert well_formedness_violations(spec) == []

    native_db = SimDatabase()
    actions, comps = flexible_bindings(
        spec, native_db, abort_probability=abort_probability, seed=seed
    )
    native = NativeFlexibleExecutor(spec, actions, comps).run()
    if native.committed:
        assert native.committed_path in spec.paths
    else:
        assert native.committed_members == []

    wf_db = SimDatabase()
    actions2, comps2 = flexible_bindings(
        spec, wf_db, abort_probability=abort_probability, seed=seed
    )
    translation = translate_flexible(spec)
    engine = Engine()
    register_programs(engine, translation, actions2, comps2)
    engine.register_definition(translation.process)
    result = engine.run_process(translation.process_name)
    assert result.finished
    wf = workflow_outcome(engine, translation, result.instance_id)
    assert wf.committed == native.committed
    assert wf.committed_path == native.committed_path
    assert wf_db.snapshot() == native_db.snapshot()


# ---------------------------------------------------------------------------
# Condition language
# ---------------------------------------------------------------------------

@st.composite
def simple_conditions(draw):
    variable = draw(st.sampled_from(["RC", "State_1", "X.Y"]))
    op = draw(st.sampled_from(["=", "<>", "<", "<=", ">", ">="]))
    value = draw(st.integers(min_value=-100, max_value=100))
    return "%s %s %d" % (variable, op, value), variable, op, value


@given(simple_conditions())
@settings(max_examples=100)
def test_condition_parse_eval_consistency(case):
    text, variable, op, value = case
    condition = parse_condition(text)
    assert condition.variables() == {variable}
    for probe in (value - 1, value, value + 1):
        env = {variable: probe, "_RC": probe}
        expected = {
            "=": probe == value,
            "<>": probe != value,
            "<": probe < value,
            "<=": probe <= value,
            ">": probe > value,
            ">=": probe >= value,
        }[op]
        assert condition.evaluate(env) is expected


@given(
    a=st.booleans(), b=st.booleans(), c=st.booleans()
)
def test_condition_boolean_semantics(a, b, c):
    env = {"A": int(a), "B": int(b), "C": int(c)}
    assert parse_condition("A = 1 AND B = 1 OR C = 1").evaluate(env) is (
        (a and b) or c
    )
    assert parse_condition("NOT A = 1").evaluate(env) is (not a)


# ---------------------------------------------------------------------------
# FDL round-trip
# ---------------------------------------------------------------------------

@given(
    layers=st.integers(min_value=1, max_value=4),
    width=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=1000),
)
@settings(max_examples=30, deadline=None)
def test_fdl_round_trip_of_generated_processes(layers, width, seed):
    definition = random_dag_process(layers=layers, width=width, seed=seed)
    definition.validate()
    text = export_definition(definition)
    restored = import_text(text).definition(definition.name)
    assert set(restored.activities) == set(definition.activities)
    assert [
        (c.source, c.target, c.condition.source)
        for c in restored.control_connectors
    ] == [
        (c.source, c.target, c.condition.source)
        for c in definition.control_connectors
    ]
    # Idempotence: exporting the restored definition is stable.
    assert export_definition(restored) == text


# ---------------------------------------------------------------------------
# Navigator quiescence
# ---------------------------------------------------------------------------

@given(
    layers=st.integers(min_value=1, max_value=4),
    width=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=1000),
    fail=st.sampled_from([0.0, 0.3]),
)
@settings(max_examples=30, deadline=None)
def test_every_process_run_quiesces_fully_terminated(layers, width, seed, fail):
    definition = random_dag_process(
        layers=layers, width=width, seed=seed, fail_probability=fail
    )
    engine = Engine()
    # Programs alternate between success and failure deterministically.
    counter = {"n": 0}

    def work(ctx) -> int:
        counter["n"] += 1
        return counter["n"] % 2

    engine.register_program("work", work)
    engine.register_definition(definition)
    result = engine.run_process(definition.name)
    assert result.finished
    states = engine.activity_states(result.instance_id)
    assert all(s in ("terminated", "dead") for s in states.values())


# ---------------------------------------------------------------------------
# Lock manager and recovery
# ---------------------------------------------------------------------------

@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(["t1", "t2", "t3"]),
            st.sampled_from(["a", "b", "c", "d"]),
            st.sampled_from([LockMode.SHARED, LockMode.EXCLUSIVE]),
        ),
        max_size=25,
    )
)
@settings(max_examples=60, deadline=None)
def test_lock_manager_never_leaks_and_never_coholds_exclusive(ops):
    lm = LockManager()
    for txn, key, mode in ops:
        try:
            lm.acquire(txn, key, mode, wait=False)
        except Exception:
            pass
        holders = lm.holders(key)
        exclusive = [t for t, m in holders.items() if m is LockMode.EXCLUSIVE]
        assert len(exclusive) <= 1
        if exclusive:
            assert len(holders) == 1
    for txn in ("t1", "t2", "t3"):
        lm.release_all(txn)
    for __, key, __mode in ops:
        assert lm.holders(key) == {}


@given(
    writes=st.lists(
        st.tuples(
            st.sampled_from(["a", "b", "c"]),
            st.integers(min_value=0, max_value=9),
            st.booleans(),  # commit?
        ),
        min_size=1,
        max_size=10,
    ),
    flush_everything=st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_restart_recovery_preserves_committed_state_and_is_idempotent(
    writes, flush_everything
):
    db = SimDatabase()
    expected: dict[str, int] = {}
    for key, value, commit in writes:
        txn = db.begin()
        txn.write(key, value)
        if commit:
            txn.commit()
            expected[key] = value
        else:
            txn.abort()
    if flush_everything:
        db.flush()
    db.crash()
    db.restart()
    assert db.snapshot() == expected
    db.crash()
    db.restart()
    assert db.snapshot() == expected


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=25, deadline=None)
def test_subtransaction_abort_leaves_no_trace(seed):
    db = SimDatabase()
    sub = Subtransaction(
        "t", db, write_value("k", seed), policy=AbortScript([1])
    )
    outcome = sub.execute()
    assert not outcome.committed
    assert db.snapshot() == {}
