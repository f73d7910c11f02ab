"""Shared helpers for the benchmark harness.

Each ``bench_*`` module regenerates one artefact of the paper (see
DESIGN.md's per-experiment index).  Helpers here build the standard
setups; behavioural assertions run once outside the timed region, so
the timings measure the system, not the checks.
"""

from __future__ import annotations

from repro.tx import AbortScript, SimDatabase
from repro.tx.failures import FailurePolicy
from repro.wfms.engine import Engine
from repro.core.bindings import register_programs, workflow_outcome
from repro.core.flexible import FlexibleSpec, NativeFlexibleExecutor
from repro.core.flexible_translator import translate_flexible
from repro.core.sagas import NativeSagaExecutor, SagaSpec, SagaStep
from repro.core.saga_translator import translate_saga
from repro.workloads.banking import fig3_bindings, fig3_spec
from repro.workloads.generator import saga_bindings


def linear_saga(n: int) -> SagaSpec:
    return SagaSpec("bench", [SagaStep("t%02d" % i) for i in range(1, n + 1)])


def abort_policy_at(spec: SagaSpec, position: int | None) -> dict:
    """Policies making step ``position`` (1-based) abort; None = none."""
    if position is None:
        return {}
    return {spec.steps[position - 1].name: AbortScript([1])}


def run_saga_native(spec: SagaSpec, policies: dict):
    db = SimDatabase()
    actions, comps = saga_bindings(spec, db, policies=dict(policies))
    return NativeSagaExecutor(spec, actions, comps).run(), db


def build_saga_engine(spec: SagaSpec, policies: dict):
    """Translate, bind and register; returns (engine, translation, db)."""
    db = SimDatabase()
    actions, comps = saga_bindings(spec, db, policies=dict(policies))
    translation = translate_saga(spec)
    engine = Engine()
    register_programs(engine, translation, actions, comps)
    engine.register_definition(translation.process)
    return engine, translation, db


def run_saga_workflow(spec: SagaSpec, policies: dict):
    engine, translation, db = build_saga_engine(spec, policies)
    result = engine.run_process(translation.process_name)
    outcome = workflow_outcome(engine, translation, result.instance_id)
    return outcome, db


def run_fig3_native(policies: dict[str, FailurePolicy]):
    db = SimDatabase()
    actions, comps = fig3_bindings(db, dict(policies))
    return NativeFlexibleExecutor(fig3_spec(), actions, comps).run(), db


def build_fig3_engine(policies: dict[str, FailurePolicy]):
    db = SimDatabase()
    actions, comps = fig3_bindings(db, dict(policies))
    translation = translate_flexible(fig3_spec())
    engine = Engine()
    register_programs(engine, translation, actions, comps)
    engine.register_definition(translation.process)
    return engine, translation, db


def run_fig3_workflow(policies: dict[str, FailurePolicy]):
    engine, translation, db = build_fig3_engine(policies)
    result = engine.run_process(translation.process_name)
    outcome = workflow_outcome(engine, translation, result.instance_id)
    return outcome, db


def print_table(title: str, headers: list[str], rows: list[tuple]) -> None:
    """Print a result table (visible with ``pytest -s`` and in the
    EXPERIMENTS.md regeneration script)."""
    widths = [
        max(len(str(headers[i])), *(len(str(r[i])) for r in rows))
        for i in range(len(headers))
    ]
    line = "  ".join("%-*s" % (w, h) for w, h in zip(widths, headers))
    print("\n" + title)
    print(line)
    print("-" * len(line))
    for row in rows:
        print("  ".join("%-*s" % (w, str(c)) for w, c in zip(widths, row)))
