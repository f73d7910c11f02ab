"""Every checkpoint position x every crash position, against the
uninterrupted run.

For each scenario the process needs ``n`` navigation steps.  For every
``k`` the checkpoint is taken after step ``k``, and for every ``j >= k``
the engine crashes after step ``j`` — so the journal suffix past the
snapshot holds 0..n-k steps' worth of records, including the positions
where the snapshot caught a block activity RUNNING and the suffix holds
its (derived) completion record.  A fresh engine recovers and runs to
the end; outcome, execution order, every subtransaction's attempt
count and the archived audit slice (read through
``archive.audit(root)``, modulo a resumed attempt's second start
record) must equal the run nothing interrupted.  The subtransaction
objects survive the crash, so an attempt count above the baseline means
recovery ran a step a second time.
"""

import pytest

from repro.core import SagaSpec, SagaStep, translate_flexible, translate_saga
from repro.core.bindings import register_programs, workflow_outcome
from repro.store import DurableStore
from repro.tx import AbortProbability, AlwaysAbort, SimDatabase
from repro.wfms import Engine
from repro.workloads import fig3_bindings, fig3_spec
from repro.workloads.generator import saga_bindings
from tests.chaos_harness import normalized_audit

#: on this seed t8 aborts after t5 and t6 committed: both are
#: compensated and the transaction commits on the t7 path.
FIG3_SEED = 6


def saga_scenario(policies):
    spec = SagaSpec("sweep", [SagaStep(n) for n in ("t01", "t02", "t03")])
    translation = translate_saga(spec)

    def bind():
        return saga_bindings(spec, SimDatabase(), policies=policies())

    return translation, bind, register_programs, workflow_outcome


def fig3_scenario():
    translation = translate_flexible(fig3_spec())

    def bind():
        policies = {
            "t%d" % member: AbortProbability(0.25, FIG3_SEED + member)
            for member in range(3, 9)
        }
        return fig3_bindings(SimDatabase(), policies)

    return (
        translation,
        bind,
        register_programs,
        workflow_outcome,
    )


SCENARIOS = {
    "saga3_commits": lambda: saga_scenario(dict),
    "saga3_aborts_at_t02": lambda: saga_scenario(
        lambda: {"t02": AlwaysAbort()}
    ),
    "fig3_flexible": fig3_scenario,
}


class Run:
    """One scenario instance: its own database and subtransactions,
    and as many engines over ``directory`` as the test builds."""

    def __init__(self, scenario, directory):
        self.translation, bind, self._register, self._outcome = scenario
        self.actions, self.compensations = bind()
        self._directory = directory

    def engine(self):
        engine = Engine(store=DurableStore(self._directory, sync="never"))
        self._register(
            engine, self.translation, self.actions, self.compensations
        )
        engine.register_definition(self.translation.process)
        return engine

    def observed(self, engine, instance):
        assert engine.instance_state(instance) == "finished"
        return (
            self._outcome(engine, self.translation, instance),
            engine.execution_order(instance),
            {name: sub.attempts for name, sub in self.actions.items()},
            {name: sub.attempts for name, sub in self.compensations.items()},
            normalized_audit(engine, instance),
        )


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_every_checkpoint_and_crash_position(name, tmp_path):
    scenario = SCENARIOS[name]()
    baseline = Run(scenario, tmp_path / "baseline")
    engine = baseline.engine()
    instance = engine.start_process(baseline.translation.process_name)
    steps = engine.run()
    expected = baseline.observed(engine, instance)
    engine.close()
    assert steps >= 3

    for k in range(steps + 1):
        for j in range(k, steps + 1):
            run = Run(scenario, tmp_path / ("k%d-j%d" % (k, j)))
            engine = run.engine()
            instance = engine.start_process(run.translation.process_name)
            for __ in range(k):
                assert engine.step()
            engine.checkpoint()
            for __ in range(j - k):
                assert engine.step()
            engine.crash()

            fresh = run.engine()
            fresh.recover()
            fresh.run()
            assert run.observed(fresh, instance) == expected, (k, j)
            fresh.close()
