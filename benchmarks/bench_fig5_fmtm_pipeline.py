"""FIG5 — the Exotica/FMTM pre-processor pipeline (Figure 5).

Regenerates the staged architecture: specification → format check →
FDL → import → semantic check → executable template → run-time
instance, reporting per-stage cost and how it scales with spec size.
"""

import pytest

from repro.tx import SimDatabase, Subtransaction
from repro.tx.subtransaction import write_value
from repro.wfms.engine import Engine
from repro.core.fmtm import FMTMPipeline, STAGES
from repro.core.saga_translator import translate_saga
from repro.core.speclang import format_saga_spec, parse_spec
from repro.core.bindings import register_programs

from _helpers import linear_saga, print_table

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


def saga_engine_for(spec):
    """Engine with all programs the translated saga will need."""
    engine = Engine()
    db = SimDatabase()
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
    return engine


def test_fig5_stages_for_saga(benchmark):
    spec = linear_saga(4)
    text = format_saga_spec(spec)

    engine = saga_engine_for(spec)
    report = FMTMPipeline(engine).process_specification(text)
    assert tuple(report.stage_names()) == STAGES
    print_table(
        "FIG5: per-stage cost, 4-step saga specification",
        ["stage", "seconds", "artefact"],
        [
            (s.name, "%.6f" % s.seconds, s.detail or "-")
            for s in report.stages
        ],
    )

    def full_pipeline():
        fresh = saga_engine_for(spec)
        return FMTMPipeline(fresh).process_specification(text)

    result = benchmark(full_pipeline)
    assert result.process_name == "Saga_bench"


def test_fig5_flexible_specification(benchmark):
    from repro.workloads.banking import fig3_bindings, fig3_spec
    from repro.core.flexible_translator import translate_flexible
    from repro.core.bindings import register_programs

    def full_pipeline():
        engine = Engine()
        db = SimDatabase()
        translation = translate_flexible(fig3_spec())
        actions, comps = fig3_bindings(db)
        register_programs(engine, translation, actions, comps)
        return FMTMPipeline(engine).process_specification(FLEX_TEXT)

    report = benchmark(full_pipeline)
    assert report.process_name == "Flexible_fig3"


@pytest.mark.parametrize("n", [2, 4, 8, 16])
def test_fig5_pipeline_scales_with_spec_size(benchmark, n):
    spec = linear_saga(n)
    text = format_saga_spec(spec)

    def full_pipeline():
        engine = saga_engine_for(spec)
        return FMTMPipeline(engine).process_specification(text)

    report = benchmark(full_pipeline)
    # FDL size grows linearly with the number of steps.
    assert len(report.fdl_text) > n * 150


def test_fig5_template_reuse_is_cheap(benchmark):
    """Figure 5's point: the template is built once, instances are
    created from it many times."""
    spec = linear_saga(4)
    text = format_saga_spec(spec)
    engine = saga_engine_for(spec)
    pipeline = FMTMPipeline(engine)
    report = pipeline.process_specification(text)

    def create_and_run_instance():
        iid = pipeline.create_instance(report)
        engine.run()
        return engine.instance_state(iid)

    state = benchmark(create_and_run_instance)
    assert state == "finished"
