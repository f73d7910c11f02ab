"""Tests for the ConTract-lite model (the FMTM extensibility claim)."""

import pytest

from repro.errors import SpecificationError, SpecSyntaxError
from repro.store import DurableStore
from repro.tx import AbortScript, SimDatabase, Subtransaction
from repro.tx.subtransaction import write_value
from repro.wfms.datatypes import DataType, VariableDecl
from repro.wfms.engine import Engine
from repro.core.contract import (
    ContractSpec,
    ContractStep,
    NativeContractExecutor,
    translate_contract,
)
from repro.core.bindings import register_programs, workflow_outcome
from repro.core.fmtm import FMTMPipeline
from repro.core.speclang import format_contract_spec, parse_spec

CONTRACT = ContractSpec(
    "order",
    context=[VariableDecl("Amount", DataType.LONG)],
    steps=[
        ContractStep("reserve"),
        ContractStep("insure", entry_condition="Amount > 100"),
        ContractStep("charge", entry_condition="Amount > 0", critical=True),
        ContractStep("ship"),
    ],
)


def bindings(db, aborts=()):
    actions = {
        s.name: Subtransaction(s.name, db, write_value(s.name, 1))
        for s in CONTRACT.steps
    }
    comps = {
        s.name: Subtransaction("c" + s.name, db, write_value(s.name, 0))
        for s in CONTRACT.steps
    }
    for name in aborts:
        actions[name].policy = AbortScript([1])
    return actions, comps


def run_native(ctx, aborts=()):
    db = SimDatabase()
    actions, comps = bindings(db, aborts)
    return NativeContractExecutor(CONTRACT, actions, comps).run(ctx), db


def run_workflow(ctx, aborts=()):
    db = SimDatabase()
    actions, comps = bindings(db, aborts)
    translation = translate_contract(CONTRACT)
    engine = Engine()
    register_programs(engine, translation, actions, comps)
    engine.register_definition(translation.process)
    iid = engine.start_process(translation.process_name, ctx)
    engine.run()
    assert engine.instance_state(iid) == "finished"
    return workflow_outcome(engine, translation, iid), db


class TestSpec:
    def test_entry_condition_must_reference_context(self):
        with pytest.raises(SpecificationError, match="Ghost"):
            ContractSpec(
                "c",
                context=[VariableDecl("X", DataType.LONG)],
                steps=[ContractStep("s", entry_condition="Ghost = 1")],
            )

    def test_duplicate_steps_rejected(self):
        with pytest.raises(SpecificationError):
            ContractSpec(
                "c", [], [ContractStep("s"), ContractStep("s")]
            )

    def test_empty_rejected(self):
        with pytest.raises(SpecificationError):
            ContractSpec("c", [], [])

    def test_bad_entry_condition_rejected_early(self):
        with pytest.raises(Exception):
            ContractStep("s", entry_condition="((")


class TestNativeExecutor:
    def test_full_run(self):
        outcome, db = run_native({"Amount": 500})
        assert outcome.committed
        assert outcome.executed == ["reserve", "insure", "charge", "ship"]
        assert outcome.skipped == []

    def test_invariant_skips_optional_step(self):
        outcome, db = run_native({"Amount": 50})
        assert outcome.committed
        assert outcome.skipped == ["insure"]
        assert db.get("insure") is None

    def test_critical_invariant_fails_contract(self):
        outcome, db = run_native({"Amount": 0})
        assert not outcome.committed
        assert outcome.failed_step == "charge"
        assert outcome.compensated == ["reserve"]

    def test_step_abort_triggers_backward_recovery(self):
        outcome, db = run_native({"Amount": 500}, aborts=("ship",))
        assert not outcome.committed
        assert outcome.compensated == ["charge", "insure", "reserve"]
        assert db.snapshot() == {
            "reserve": 0, "insure": 0, "charge": 0,
        }


class TestWorkflowParity:
    @pytest.mark.parametrize(
        "ctx,aborts",
        [
            ({"Amount": 500}, ()),
            ({"Amount": 50}, ()),
            ({"Amount": 0}, ()),
            ({"Amount": 500}, ("ship",)),
            ({"Amount": 500}, ("reserve",)),
            ({"Amount": 50}, ("ship",)),
        ],
        ids=["full", "skip", "critical-fail", "ship-abort",
             "reserve-abort", "skip-then-abort"],
    )
    def test_native_workflow_agree(self, ctx, aborts):
        native, native_db = run_native(dict(ctx), aborts)
        workflow, wf_db = run_workflow(dict(ctx), aborts)
        assert workflow.committed == native.committed
        assert workflow.executed == native.executed
        assert workflow.skipped == native.skipped
        assert workflow.compensated == native.compensated
        assert wf_db.snapshot() == native_db.snapshot()

    def test_if_then_else_via_conditions(self):
        # The §3.2 claim: conditions implement if-then-else — the
        # insure step's Eval has two complementary outgoing edges.
        translation = translate_contract(CONTRACT)
        edges = {
            (c.target, c.condition.source)
            for c in translation.process.outgoing("Eval_insure")
        }
        assert ("insure", "Amount > 100") in edges
        assert ("Eval_charge", "NOT (Amount > 100)") in edges

    @pytest.mark.parametrize(
        "ctx,aborts",
        [
            ({"Amount": 500}, ()),
            ({"Amount": 0}, ()),
            ({"Amount": 500}, ("ship",)),
            ({"Amount": 50}, ("ship",)),
        ],
        ids=["full", "critical-fail", "ship-abort", "skip-then-abort"],
    )
    def test_store_backed_engine_agrees(self, tmp_path, ctx, aborts):
        # A store-backed engine archives and evicts a finished root; the
        # outcome must come from what the engine still answers for it.
        outcomes = []
        for engine in (Engine(), Engine(store=DurableStore(tmp_path))):
            actions, comps = bindings(SimDatabase(), aborts)
            translation = translate_contract(CONTRACT)
            register_programs(engine, translation, actions, comps)
            engine.register_definition(translation.process)
            iid = engine.start_process(translation.process_name, dict(ctx))
            engine.run()
            outcomes.append(workflow_outcome(engine, translation, iid))
        assert outcomes[0] == outcomes[1]


class TestSpecLanguageIntegration:
    TEXT = """
    MODEL CONTRACT 'order'
      CONTEXT 'Amount' LONG
      STEP 'reserve'
      STEP 'insure' WHEN "Amount > 100"
      STEP 'charge' WHEN "Amount > 0" CRITICAL
      STEP 'ship'
    END 'order'
    """

    def test_parses(self):
        spec = parse_spec(self.TEXT)
        assert isinstance(spec, ContractSpec)
        assert spec.steps[1].entry_condition == "Amount > 100"
        assert spec.steps[2].critical

    def test_round_trip(self):
        spec = parse_spec(self.TEXT)
        again = parse_spec(format_contract_spec(spec))
        assert [s.name for s in again.steps] == [s.name for s in spec.steps]
        assert [s.critical for s in again.steps] == [
            s.critical for s in spec.steps
        ]

    def test_bad_context_line_rejected(self):
        with pytest.raises(SpecSyntaxError, match="CONTEXT"):
            parse_spec(
                "MODEL CONTRACT 'c'\n  CONTEXT 'X'\n  STEP 's'\nEND 'c'"
            )

    def test_through_fmtm_pipeline(self):
        db = SimDatabase()
        actions, comps = bindings(db)
        translation = translate_contract(CONTRACT)
        engine = Engine()
        register_programs(engine, translation, actions, comps)
        pipeline = FMTMPipeline(engine)
        report = pipeline.process_specification(self.TEXT)
        assert report.process_name == "Contract_order"
        iid = engine.start_process(report.process_name, {"Amount": 500})
        engine.run()
        outcome = workflow_outcome(engine, report.translation, iid)
        assert outcome.committed

    def test_dag_saga_through_pipeline(self):
        from repro.core.parallel_saga import translate_parallel_saga
        from repro.core.bindings import register_programs, workflow_outcome
        from repro.core.sagas import SagaSpec, SagaStep
        from repro.workloads.generator import saga_bindings

        text = """
        MODEL SAGA 'dag'
          STEP 'a'
          STEP 'b'
          STEP 'c'
          ORDER 'a' 'b'
          ORDER 'a' 'c'
        END 'dag'
        """
        spec = SagaSpec(
            "dag",
            [SagaStep(n) for n in "abc"],
            order=[("a", "b"), ("a", "c")],
        )
        db = SimDatabase()
        actions, comps = saga_bindings(spec, db)
        translation = translate_parallel_saga(spec)
        engine = Engine()
        register_programs(engine, translation, actions, comps)
        pipeline = FMTMPipeline(engine)
        report = pipeline.process_specification(text)
        assert report.process_name == "PSaga_dag"
        iid = pipeline.create_instance(report)
        engine.run()
        outcome = workflow_outcome(engine, report.translation, iid)
        assert outcome.committed
