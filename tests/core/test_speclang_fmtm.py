"""Tests for the FMTM specification language and the Figure 5 pipeline."""

import pytest

from repro.errors import (
    FDLError,
    ProgramError,
    SpecificationError,
    SpecSyntaxError,
    WellFormednessError,
)
from repro.tx import AbortScript, SimDatabase
from repro.wfms.engine import Engine
from repro.core.flexible import FlexibleSpec
from repro.core.fmtm import FMTMPipeline, STAGES, translate
from repro.core.sagas import SagaSpec
from repro.core.speclang import (
    format_flexible_spec,
    format_saga_spec,
    parse_spec,
    parse_specs,
)
from repro.core.bindings import register_programs, workflow_outcome
from repro.core.flexible_translator import translate_flexible
from repro.core.saga_translator import translate_saga
from repro.workloads.banking import fig3_bindings, fig3_spec

SAGA_TEXT = """
// travel booking
MODEL SAGA 'travel'
  STEP 'flight' PROGRAM 'p_flight' COMPENSATION 'c_flight'
  STEP 'hotel'
END 'travel'
"""

FLEX_TEXT = """
MODEL FLEXIBLE 'fig3'
  SUBTRANSACTION 't1' COMPENSATABLE
  SUBTRANSACTION 't2' PIVOT
  SUBTRANSACTION 't3' RETRIABLE
  SUBTRANSACTION 't4' PIVOT
  SUBTRANSACTION 't5' COMPENSATABLE
  SUBTRANSACTION 't6' COMPENSATABLE
  SUBTRANSACTION 't7' RETRIABLE
  SUBTRANSACTION 't8' PIVOT
  PATH 't1' 't2' 't4' 't5' 't6' 't8'
  PATH 't1' 't2' 't4' 't7'
  PATH 't1' 't2' 't3'
END 'fig3'
"""


class TestSpecLanguage:
    def test_saga_parses(self):
        spec = parse_spec(SAGA_TEXT)
        assert isinstance(spec, SagaSpec)
        assert [s.name for s in spec.steps] == ["flight", "hotel"]
        assert spec.steps[0].program == "p_flight"
        assert spec.steps[0].compensation_program == "c_flight"
        assert spec.steps[1].program == "txn_hotel"

    def test_flexible_parses_to_fig3(self):
        spec = parse_spec(FLEX_TEXT)
        assert isinstance(spec, FlexibleSpec)
        reference = fig3_spec()
        assert spec.paths == reference.paths
        for name, member in reference.members.items():
            parsed = spec.member(name)
            assert parsed.compensatable == member.compensatable
            assert parsed.retriable == member.retriable

    def test_multiple_models_in_one_document(self):
        specs = parse_specs(SAGA_TEXT + FLEX_TEXT)
        assert len(specs) == 2
        with pytest.raises(SpecSyntaxError):
            parse_spec(SAGA_TEXT + FLEX_TEXT)

    def test_pivot_excludes_other_flags(self):
        text = """
        MODEL FLEXIBLE 'x'
          SUBTRANSACTION 'a' PIVOT COMPENSATABLE
          PATH 'a'
        END 'x'
        """
        with pytest.raises(SpecSyntaxError, match="PIVOT"):
            parse_spec(text)

    def test_missing_end_rejected(self):
        with pytest.raises(SpecSyntaxError, match="END"):
            parse_spec("MODEL SAGA 'x'\n  STEP 'a'\n")

    def test_wrong_end_name_rejected(self):
        with pytest.raises(SpecSyntaxError):
            parse_spec("MODEL SAGA 'x'\n  STEP 'a'\nEND 'y'\n")

    def test_unknown_keyword_rejected(self):
        with pytest.raises(SpecSyntaxError, match="quoted"):
            parse_spec("MODEL SAGA travel\nEND 'travel'\n")

    def test_saga_round_trip(self):
        spec = parse_spec(SAGA_TEXT)
        again = parse_spec(format_saga_spec(spec))
        assert [s.name for s in again.steps] == [s.name for s in spec.steps]
        assert [s.program for s in again.steps] == [
            s.program for s in spec.steps
        ]

    def test_flexible_round_trip(self):
        spec = parse_spec(FLEX_TEXT)
        again = parse_spec(format_flexible_spec(spec))
        assert again.paths == spec.paths
        assert set(again.members) == set(spec.members)


class TestPipeline:
    def prepared_engine_for_saga(self):
        from repro.tx.subtransaction import write_value
        from repro.tx import Subtransaction

        engine = Engine()
        db = SimDatabase()
        spec = parse_spec(SAGA_TEXT)
        translation = translate_saga(spec)
        actions = {
            s.name: Subtransaction(s.name, db, write_value(s.name, 1))
            for s in spec.steps
        }
        comps = {
            s.name: Subtransaction("c" + s.name, db, write_value(s.name, 0))
            for s in spec.steps
        }
        register_programs(engine, translation, actions, comps)
        return engine, db

    def test_all_stages_run_in_order(self):
        engine, __ = self.prepared_engine_for_saga()
        report = FMTMPipeline(engine).process_specification(SAGA_TEXT)
        assert tuple(report.stage_names()) == STAGES
        assert all(s.seconds >= 0 for s in report.stages)

    def test_pipeline_produces_runnable_template(self):
        engine, __ = self.prepared_engine_for_saga()
        pipeline = FMTMPipeline(engine)
        report = pipeline.process_specification(SAGA_TEXT)
        assert report.process_name == "Saga_travel"
        iid = pipeline.create_instance(report)
        engine.run()
        out = workflow_outcome(engine, report.translation, iid)
        assert out.committed
        assert out.executed == ["flight", "hotel"]

    def test_pipeline_fdl_is_importable_standalone(self):
        from repro.fdl import import_text

        engine, __ = self.prepared_engine_for_saga()
        report = FMTMPipeline(engine).process_specification(SAGA_TEXT)
        result = import_text(report.fdl_text)
        assert result.definition("Saga_travel") is not None

    def test_flexible_specification_through_pipeline(self):
        engine = Engine()
        db = SimDatabase()
        spec = fig3_spec()
        translation = translate_flexible(spec)
        actions, comps = fig3_bindings(db, {"t8": AbortScript([1])})
        register_programs(engine, translation, actions, comps)
        pipeline = FMTMPipeline(engine)
        report = pipeline.process_specification(FLEX_TEXT)
        iid = pipeline.create_instance(report)
        engine.run()
        out = workflow_outcome(engine, report.translation, iid)
        assert out.committed
        assert out.committed_path == ["t1", "t2", "t4", "t7"]
        assert out.compensated == ["t6", "t5"]

    def test_format_check_stage_rejects_ill_formed(self):
        text = """
        MODEL FLEXIBLE 'bad'
          SUBTRANSACTION 'p1' PIVOT
          SUBTRANSACTION 'p2' PIVOT
          PATH 'p1' 'p2'
        END 'bad'
        """
        with pytest.raises(WellFormednessError):
            FMTMPipeline(Engine()).process_specification(text)

    def test_template_stage_rejects_missing_programs(self):
        # Figure 5: the final translator checks "a suitable program
        # definition exists".
        engine = Engine()  # no programs registered
        with pytest.raises(ProgramError):
            FMTMPipeline(engine).process_specification(SAGA_TEXT)

    def test_instances_are_independent(self):
        engine, db = self.prepared_engine_for_saga()
        pipeline = FMTMPipeline(engine)
        report = pipeline.process_specification(SAGA_TEXT)
        i1 = pipeline.create_instance(report)
        i2 = pipeline.create_instance(report)
        engine.run()
        assert engine.instance_state(i1) == "finished"
        assert engine.instance_state(i2) == "finished"


class TestCompensateCompletedScope:
    """``compensate_completed`` is a saga option: flexible transactions
    and contracts refuse it rather than ignore it."""

    CONTRACT_TEXT = """
MODEL CONTRACT 'c'
  STEP 'a'
END 'c'
"""

    @pytest.mark.parametrize("text", [FLEX_TEXT, CONTRACT_TEXT],
                             ids=["flexible", "contract"])
    def test_translate_refuses(self, text):
        with pytest.raises(SpecificationError, match="compensate_completed"):
            translate(parse_spec(text), compensate_completed=True)

    @pytest.mark.parametrize("text", [FLEX_TEXT, CONTRACT_TEXT],
                             ids=["flexible", "contract"])
    def test_pipeline_refuses(self, text):
        pipeline = FMTMPipeline(Engine())
        with pytest.raises(SpecificationError, match="compensate_completed"):
            pipeline.process_specification(text, compensate_completed=True)
