"""Grand-tour integration tests: every layer at once.

The scenario the paper implies but never spells out: a saga expressed
in the FMTM language, translated through the full Figure 5 pipeline,
executing against real (simulated) resource managers under a
persistent journal — crashing at the worst possible moments and
recovering with the saga guarantee intact and **every subtransaction
and compensation executed exactly once**.

The resource managers survive the engine crash (they are separate
systems); the engine's journal is what prevents double execution.
"""

import pytest

from repro.store import DurableStore
from repro.tx import AbortScript, SimDatabase, Subtransaction
from repro.tx.subtransaction import write_value
from repro.wfms.engine import Engine
from repro.core.bindings import register_programs, workflow_outcome
from repro.core.fmtm import FMTMPipeline
from repro.core.sagas import verify_saga_guarantee
from repro.core.saga_translator import translate_saga
from repro.core.speclang import parse_spec

SPEC_TEXT = """
MODEL SAGA 'tour'
  STEP 't1'
  STEP 't2'
  STEP 't3'
END 'tour'
"""


class CountingSubtransaction(Subtransaction):
    """Counts executions in a dict that survives engine crashes."""

    def __init__(self, name, database, body, counters, policy=None):
        super().__init__(name, database, body)
        if policy is not None:
            self.policy = policy
        self._counters = counters

    def execute(self):
        self._counters[self.name] = self._counters.get(self.name, 0) + 1
        return super().execute()


def build_engine(store_dir, database, counters, *, abort_t3=True):
    """Fresh engine + pipeline over the shared database/counters."""
    engine = Engine(store=DurableStore(store_dir))
    spec = parse_spec(SPEC_TEXT)
    translation = translate_saga(spec)
    actions = {}
    compensations = {}
    for step in spec.steps:
        policy = AbortScript([1]) if (abort_t3 and step.name == "t3") else None
        actions[step.name] = CountingSubtransaction(
            step.name, database, write_value(step.name, 1), counters, policy
        )
        compensations[step.name] = CountingSubtransaction(
            "c_" + step.name, database, write_value(step.name, 0), counters
        )
    register_programs(engine, translation, actions, compensations)
    pipeline = FMTMPipeline(engine)
    report = pipeline.process_specification(SPEC_TEXT)
    return engine, report


class TestGrandTour:
    def test_happy_path_through_every_layer(self, tmp_path):
        database = SimDatabase("resources")
        counters: dict[str, int] = {}
        engine, report = build_engine(
            str(tmp_path / "j.jsonl"), database, counters, abort_t3=False
        )
        iid = engine.start_process(report.process_name)
        engine.run()
        outcome = workflow_outcome(engine, report.translation, iid)
        assert outcome.committed
        assert database.snapshot() == {"t1": 1, "t2": 1, "t3": 1}
        assert counters == {"t1": 1, "t2": 1, "t3": 1}

    @pytest.mark.parametrize("crash_after_steps", [1, 2, 3, 4, 5, 6])
    def test_crash_anywhere_preserves_exactly_once(
        self, tmp_path, crash_after_steps
    ):
        """Crash after k navigator steps (covering forward execution,
        the abort, and mid-compensation), recover, finish: the saga
        guarantee holds and nothing ran twice."""
        journal = str(tmp_path / "j")
        database = SimDatabase("resources")
        counters: dict[str, int] = {}
        engine, report = build_engine(journal, database, counters)
        iid = engine.start_process(report.process_name)
        for __ in range(crash_after_steps):
            if not engine.step():
                break
        engine.crash()

        engine2, report2 = build_engine(journal, database, counters)
        engine2.recover()
        engine2.run()
        assert engine2.instance_state(iid) == "finished"
        outcome = workflow_outcome(engine2, report2.translation, iid)
        spec = report2.spec
        assert verify_saga_guarantee(
            spec, outcome.executed, outcome.compensated
        )
        # t3 aborted: final state must be fully compensated.
        assert not outcome.committed
        assert outcome.executed == ["t1", "t2"]
        assert outcome.compensated == ["t2", "t1"]
        for key in ("t1", "t2"):
            assert database.get(key) == 0
        # Exactly-once: every subtransaction/compensation body ran once.
        assert counters == {
            "t1": 1, "t2": 1, "t3": 1, "c_t1": 1, "c_t2": 1
        }

    def test_double_crash_is_still_exactly_once(self, tmp_path):
        journal = str(tmp_path / "j")
        database = SimDatabase("resources")
        counters: dict[str, int] = {}
        engine, report = build_engine(journal, database, counters)
        iid = engine.start_process(report.process_name)
        engine.step()
        engine.step()
        engine.crash()

        engine2, __ = build_engine(journal, database, counters)
        engine2.recover()
        engine2.step()
        engine2.step()
        engine2.crash()

        engine3, report3 = build_engine(journal, database, counters)
        engine3.recover()
        engine3.run()
        assert engine3.instance_state(iid) == "finished"
        outcome = workflow_outcome(engine3, report3.translation, iid)
        assert outcome.compensated == ["t2", "t1"]
        assert counters == {
            "t1": 1, "t2": 1, "t3": 1, "c_t1": 1, "c_t2": 1
        }

    def test_fdl_artifact_survives_independent_reimport(self, tmp_path):
        """The FDL the pipeline emitted is a complete, standalone
        description: importing it into a brand-new engine yields an
        equivalent executable process."""
        from repro.fdl import import_text

        database = SimDatabase("resources")
        counters: dict[str, int] = {}
        engine, report = build_engine(
            str(tmp_path / "j.jsonl"), database, counters, abort_t3=False
        )
        fresh = Engine()
        spec = parse_spec(SPEC_TEXT)
        translation = translate_saga(spec)
        database2 = SimDatabase("resources2")
        actions = {
            s.name: Subtransaction(s.name, database2, write_value(s.name, 1))
            for s in spec.steps
        }
        comps = {
            s.name: Subtransaction(
                "c" + s.name, database2, write_value(s.name, 0)
            )
            for s in spec.steps
        }
        register_programs(fresh, translation, actions, comps)
        import_text(report.fdl_text).register_into(fresh)
        result = fresh.run_process(report.process_name)
        assert result.finished
        assert database2.snapshot() == {"t1": 1, "t2": 1, "t3": 1}
