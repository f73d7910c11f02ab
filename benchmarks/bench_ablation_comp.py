"""ABL-COMP — ablation: dead-path vs guarded compensation.

DESIGN.md calls out one real design choice in the Figure 2
construction: never-executed compensations can be skipped either

* **dead-path** (the paper's way): the navigator's dead-path
  elimination kills the compensating activities whose State triggers
  are false — only the j needed compensations *run*; or
* **guarded** (needed for DAG sagas): every compensating activity
  runs, and a guard inside the program returns immediately when the
  forward step never committed.

Both must be behaviourally identical on linear sagas; the ablation
measures what the choice costs as the fraction of needed compensation
shrinks (abort early in a long saga = most compensations unnecessary).
"""

import pytest

from repro.tx import SimDatabase
from repro.wfms.engine import Engine
from repro.core.bindings import register_programs, workflow_outcome
from repro.core.parallel_saga import translate_parallel_saga
from repro.core.saga_translator import translate_saga
from repro.workloads.generator import saga_bindings

from _helpers import abort_policy_at, linear_saga, print_table

N = 12


def run(translate, spec, policies):
    """Run ``spec`` translated by ``translate`` (translate_saga builds
    the dead-path construction, translate_parallel_saga the guarded
    one)."""
    db = SimDatabase()
    actions, comps = saga_bindings(spec, db, policies=dict(policies))
    translation = translate(spec)
    engine = Engine()
    register_programs(engine, translation, actions, comps)
    engine.register_definition(translation.process)
    result = engine.run_process(translation.process_name)
    return (
        workflow_outcome(engine, translation, result.instance_id),
        engine,
        result.instance_id,
        db,
    )


def comp_activities_started(engine, instance_id):
    """How many compensating activities actually *started*."""
    root = engine.navigator.instance(instance_id)
    comp = root.activities.get("Compensation")
    if comp is None or not comp.child_instance:
        return 0
    started = engine.audit.started_order(comp.child_instance)
    return sum(1 for name in started if name.startswith("Comp_"))


def test_constructions_agree_everywhere(benchmark):
    spec = linear_saga(N)
    rows = []
    for j in [1, N // 4, N // 2, N]:
        policies = abort_policy_at(spec, j)
        dead, dead_engine, dead_iid, dead_db = run(
            translate_saga, spec, policies
        )
        guard, guard_engine, guard_iid, guard_db = run(
            translate_parallel_saga, spec, policies
        )
        assert dead.executed == guard.executed, j
        assert dead.compensated == guard.compensated, j
        assert dead_db.snapshot() == guard_db.snapshot(), j
        rows.append(
            (
                j,
                len(dead.compensated),
                comp_activities_started(dead_engine, dead_iid),
                comp_activities_started(guard_engine, guard_iid),
            )
        )
    print_table(
        "ABL-COMP: compensating activities started (n=%d saga)" % N,
        [
            "abort at",
            "needed",
            "dead-path construction",
            "guarded construction",
        ],
        rows,
    )
    # Dead-path starts only what is needed; guarded always starts n.
    for j, needed, dead_started, guard_started in rows:
        assert dead_started == needed
        assert guard_started == N

    benchmark(lambda: run(translate_saga, spec, abort_policy_at(spec, 1)))


@pytest.mark.parametrize("construction", ["deadpath", "guarded"])
@pytest.mark.parametrize("abort_at", [1, N])
def test_ablation_cost(benchmark, construction, abort_at):
    spec = linear_saga(N)
    policies = abort_policy_at(spec, abort_at)
    translate = (
        translate_saga if construction == "deadpath" else translate_parallel_saga
    )
    outcome, *__ = benchmark(lambda: run(translate, spec, policies))
    assert not outcome.committed
