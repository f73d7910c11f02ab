"""APP-S — the appendix's saga execution example, step by step.

The appendix narrates: activities report return codes; each activity's
State_i is mapped into the forward block's output container; RC_FB
gates the compensation block; the NOP's connectors test State_i;
compensation runs in reverse order "starting from the last activity
executed"; failed compensations are retried through exit conditions.
Every sentence is asserted here against the audit trail.
"""

import pytest

from repro.tx import AbortScript, FailNTimes, SimDatabase
from repro.wfms.audit import AuditEvent
from repro.core.bindings import register_programs, workflow_outcome
from repro.core.compblock import state_var
from repro.core.saga_translator import translate_saga
from repro.wfms.engine import Engine
from repro.workloads.generator import saga_bindings

from _helpers import linear_saga, print_table


def run_with_trace(policies, comp_policies=None):
    spec = linear_saga(3)
    db = SimDatabase()
    actions, comps = saga_bindings(spec, db, policies=dict(policies))
    for name, policy in (comp_policies or {}).items():
        comps[name].policy = policy
    translation = translate_saga(spec)
    engine = Engine()
    register_programs(engine, translation, actions, comps)
    engine.register_definition(translation.process)
    result = engine.run_process(translation.process_name)
    return engine, translation, result, spec


def test_appendix_saga_success_trace(benchmark):
    """All three activities execute; compensation block is eliminated
    by dead-path (RC_FB = 0)."""
    engine, tr, result, spec = run_with_trace({})
    assert result.output["_RC"] == 0                       # RC_FB
    assert result.dead_activities == ["Compensation"]      # dead path
    for step in spec.steps:
        assert result.output[state_var(step.name)] == 1    # State_i

    benchmark(lambda: run_with_trace({}))


def test_appendix_saga_abort_trace(benchmark):
    """T3 aborts: RC_FB <> 0, compensation starts at the last executed
    activity and proceeds in reverse order."""
    engine, tr, result, spec = run_with_trace({"t03": AbortScript([1])})
    assert result.output["_RC"] != 0
    assert "Compensation" not in result.dead_activities
    order = engine.execution_order(result.instance_id)
    # Forward: t01 t02 t03(aborted, still terminated with RC=1 => the
    # connector evaluated false and dead-path killed nothing further);
    # compensation: NOP, then Comp_t02 before Comp_t01.
    assert order.index("Comp_t02") < order.index("Comp_t01")
    assert order.index("NOP") < order.index("Comp_t02")
    # "If an activity did not execute, its compensation will not take
    # place since its start condition will never become true."
    comp_child = [
        i.instance_id
        for i in engine.navigator.instances()
        if i.parent_activity == "Compensation"
    ][0]
    assert "Comp_t03" in engine.audit.dead_activities(comp_child)

    rows = [(a,) for a in order]
    print_table("APP-S: termination order, abort at T3", ["activity"], rows)

    benchmark(lambda: run_with_trace({"t03": AbortScript([1])}))


def test_appendix_saga_retriable_compensation(benchmark):
    """"Compensation activities will not finish until the return code
    from the transaction indicates that it has committed." """
    engine, tr, result, spec = run_with_trace(
        {"t03": AbortScript([1])},
        comp_policies={"t01": FailNTimes(3)},
    )
    outcome = workflow_outcome(engine, tr, result.instance_id)
    assert outcome.compensated == ["t02", "t01"]
    comp_child = [
        i.instance_id
        for i in engine.navigator.instances()
        if i.parent_activity == "Compensation"
    ][0]
    assert engine.audit.attempts(comp_child, "Comp_t01") == 4
    rescheduled = engine.audit.records(
        comp_child, AuditEvent.ACTIVITY_RESCHEDULED, "Comp_t01"
    )
    assert len(rescheduled) == 3

    benchmark(
        lambda: run_with_trace(
            {"t03": AbortScript([1])},
            comp_policies={"t01": FailNTimes(3)},
        )
    )
