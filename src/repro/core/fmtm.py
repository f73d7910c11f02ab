"""Exotica/FMTM — the Figure 5 pre-processor pipeline (§5).

"The pre-processor checks that the user specification meets the format
of the advanced transaction model specified.  It then takes the user
specification and converts it into a FlowMark process in FDL format.
... This FDL output is then imported into FlowMark and an internal
representation of the process is created.  During this conversion the
import module checks for inconsistencies in the syntax of the process
definition.  Finally this internal format is translated into an
executable FlowMark process.  Here the translator checks the semantics
of the FlowMark process to see if the specified user transactions are
valid, i.e., a suitable program definition exists, if the control
connectors are legal, etc.  This executable FlowMark process is
essentially a template that will be utilized to create run-time
instances of the process."

:class:`FMTMPipeline` reproduces each stage and records what every
stage produced and how long it took, so the FIG5 benchmark can report
per-stage costs.  Stage timing runs on :mod:`repro.obs` spans: when
the bound engine has observability enabled the stages appear in its
tracer (one ``fmtm.pipeline`` span with a child per stage) and feed an
``fmtm_stage_seconds`` histogram; otherwise a private throwaway tracer
provides the same durations for :class:`PipelineReport` without
touching any global state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.errors import SpecificationError
from repro.obs.tracing import Span, Tracer
from repro.fdl.exporter import export_document
from repro.fdl.importer import ImportResult, import_text
from repro.wfms.engine import Engine
from repro.core.compblock import DEAD_PATH, GUARDED, Translation
from repro.core.contract import ContractSpec, translate_contract
from repro.core.flexible import FlexibleSpec
from repro.core.flexible_translator import translate_flexible
from repro.core.sagas import SagaSpec
from repro.core.saga_translator import lower_saga
from repro.core.speclang import parse_spec
from repro.core.wellformed import check_well_formed


@dataclass
class StageRecord:
    name: str
    seconds: float
    detail: str = ""


@dataclass
class PipelineReport:
    """Everything the pipeline produced, stage by stage."""

    spec: SagaSpec | FlexibleSpec | ContractSpec | None = None
    translation: Translation | None = None
    fdl_text: str = ""
    import_result: ImportResult | None = None
    process_name: str = ""
    stages: list[StageRecord] = field(default_factory=list)

    def stage(self, name: str) -> StageRecord:
        for record in self.stages:
            if record.name == name:
                return record
        raise KeyError(name)

    def stage_names(self) -> list[str]:
        return [record.name for record in self.stages]


def translate(
    spec: SagaSpec | FlexibleSpec | ContractSpec,
    *,
    compensate_completed: bool = False,
    max_retries: int = 100,
) -> Translation:
    """Translate ``spec`` with its model's translator: linear sagas by
    Figure 2, DAG sagas by the guarded construction, flexible
    transactions by Figure 4, contracts by ConTract-lite.

    ``compensate_completed`` compensates a committed saga too, linear
    or DAG; flexible transactions and contracts refuse it.
    ``max_retries`` bounds retried subtransactions and compensations.
    """
    if isinstance(spec, SagaSpec):
        construction = DEAD_PATH if spec.is_linear else GUARDED
        return lower_saga(
            spec, construction, compensate_completed, max_retries
        )
    if compensate_completed:
        raise SpecificationError(
            "compensate_completed applies to sagas, not to %s"
            % type(spec).__name__
        )
    if isinstance(spec, FlexibleSpec):
        return translate_flexible(spec, max_retries=max_retries)
    if isinstance(spec, ContractSpec):
        return translate_contract(spec, max_compensation_attempts=max_retries)
    raise SpecificationError("unsupported model %r" % type(spec).__name__)


#: The stages of Figure 5, in order.
STAGES = (
    "parse_specification",
    "check_model_format",
    "translate_to_process",
    "emit_fdl",
    "import_fdl",
    "build_template",
)


class FMTMPipeline:
    """The pre-processor, bound to one engine (the "FlowMark")."""

    def __init__(self, engine: Engine, *, max_retries: int = 100):
        self.engine = engine
        self.max_retries = max_retries
        obs = engine.obs
        if obs.tracer.enabled:
            self._tracer = obs.tracer
            self._h_stage_seconds = obs.metrics.histogram(
                "fmtm_stage_seconds",
                "Seconds per Figure 5 pre-processor stage",
                labels=("stage",),
            )
        else:
            # Private tracer: stage durations still power the report,
            # but nothing escapes the pipeline.
            self._tracer = Tracer(max_spans=256)
            self._h_stage_seconds = None

    def process_specification(
        self,
        text: str,
        *,
        compensate_completed: bool = False,
    ) -> PipelineReport:
        """Run the full pipeline on a specification text.

        On return the executable template is registered with the
        engine; ``report.process_name`` starts instances.
        """
        report = PipelineReport()
        pipeline_span = self._tracer.start_span(
            "fmtm.pipeline", kind="fmtm", attributes={"chars": len(text)}
        )
        try:
            self._run_stages(
                report,
                text,
                pipeline_span,
                compensate_completed=compensate_completed,
            )
        except BaseException:
            pipeline_span.finish(status="error")
            raise
        pipeline_span.set_attribute("process", report.process_name)
        pipeline_span.finish()
        return report

    def _run_stages(
        self,
        report: PipelineReport,
        text: str,
        pipeline_span: Span,
        *,
        compensate_completed: bool,
    ) -> None:
        # Stage 1: parse the user specification.
        spec = self._timed(
            report, pipeline_span, "parse_specification",
            lambda: parse_spec(text),
        )
        report.spec = spec

        # Stage 2: "checks that the user specification meets the
        # format of the advanced transaction model specified".
        def check() -> str:
            if isinstance(spec, FlexibleSpec):
                check_well_formed(spec)
                return "well-formed flexible transaction"
            if isinstance(spec, SagaSpec):
                # SagaSpec construction already validated structure.
                return "valid saga" if spec.is_linear else "valid DAG saga"
            if isinstance(spec, ContractSpec):
                # ContractSpec construction validated context references.
                return "valid contract"
            raise SpecificationError(
                "unsupported model %r" % type(spec).__name__
            )

        self._timed(report, pipeline_span, "check_model_format", check)

        # Stage 3: convert into a process definition.
        translation = self._timed(
            report,
            pipeline_span,
            "translate_to_process",
            lambda: translate(
                spec,
                compensate_completed=compensate_completed,
                max_retries=self.max_retries,
            ),
        )
        report.translation = translation

        # Stage 4: emit FDL.
        def emit() -> str:
            definitions = [translation.process]
            return export_document(
                definitions, translation.required_programs
            )

        report.fdl_text = self._timed(report, pipeline_span, "emit_fdl", emit)

        # Stage 5: import the FDL (syntax + structural checks).
        report.import_result = self._timed(
            report, pipeline_span, "import_fdl",
            lambda: import_text(report.fdl_text),
        )

        # Stage 6: build the executable template (semantic checks:
        # "a suitable program definition exists, ... the control
        # connectors are legal").
        def build() -> str:
            definition = report.import_result.definition(
                translation.process_name
            )
            self.engine.register_definition(definition)
            self.engine.verify_executable(definition.name)
            return definition.name

        report.process_name = self._timed(
            report, pipeline_span, "build_template", build
        )

    def create_instance(
        self, report: PipelineReport, input_values: dict[str, Any] | None = None
    ) -> str:
        """Create a run-time instance from the template."""
        return self.engine.start_process(report.process_name, input_values)

    def _timed(
        self, report: PipelineReport, parent: Span, name: str, thunk
    ):
        span = self._tracer.start_span(
            "fmtm.%s" % name, parent=parent, kind="fmtm"
        )
        try:
            result = thunk()
        except BaseException:
            span.finish(status="error")
            raise
        span.finish()
        detail = ""
        if isinstance(result, str):
            detail = result if len(result) < 60 else "%d chars" % len(result)
        report.stages.append(StageRecord(name, span.duration, detail))
        if self._h_stage_seconds is not None:
            self._h_stage_seconds.labels(name).observe(span.duration)
        return result
