"""SWEEP-FAIL — failure-probability sweep (extension experiment).

Drives generated flexible transactions under increasing per-attempt
abort probability and reports the distribution of outcomes (preferred
path / fallback path / aborted) plus native/workflow agreement per
seed.  Expected shape: as p grows, commits shift from the preferred
path to the fallback and finally to aborts — while the two
implementations agree on *every* seed.
"""

import pytest

from repro.tx import SimDatabase
from repro.wfms.engine import Engine
from repro.core.bindings import register_programs, workflow_outcome
from repro.core.flexible import NativeFlexibleExecutor
from repro.core.flexible_translator import translate_flexible
from repro.workloads.generator import flexible_bindings, random_flexible_spec

from _helpers import print_table

PROBABILITIES = [0.0, 0.1, 0.3, 0.5]
SEEDS = range(20)


def run_native(spec, p, seed):
    db = SimDatabase()
    actions, comps = flexible_bindings(
        spec, db, abort_probability=p, seed=seed
    )
    return NativeFlexibleExecutor(spec, actions, comps).run(), db


def run_workflow(spec, p, seed):
    db = SimDatabase()
    actions, comps = flexible_bindings(
        spec, db, abort_probability=p, seed=seed
    )
    translation = translate_flexible(spec)
    engine = Engine()
    register_programs(engine, translation, actions, comps)
    engine.register_definition(translation.process)
    result = engine.run_process(translation.process_name)
    return (
        workflow_outcome(engine, translation, result.instance_id),
        db,
    )


def classify(spec, outcome):
    if not outcome.committed:
        return "aborted"
    if outcome.committed_path == spec.paths[0]:
        return "preferred"
    return "fallback"


def test_outcome_distribution_vs_failure_rate(benchmark):
    rows = []
    for p in PROBABILITIES:
        counts = {"preferred": 0, "fallback": 0, "aborted": 0}
        agreement = 0
        for seed in SEEDS:
            spec = random_flexible_spec(branches=2, seed=seed)
            native, native_db = run_native(spec, p, seed)
            workflow, wf_db = run_workflow(spec, p, seed)
            assert native.committed == workflow.committed, (p, seed)
            assert native.committed_path == workflow.committed_path
            assert native_db.snapshot() == wf_db.snapshot()
            agreement += 1
            counts[classify(spec, workflow)] += 1
        rows.append(
            (
                p,
                counts["preferred"],
                counts["fallback"],
                counts["aborted"],
                "%d/%d" % (agreement, len(SEEDS)),
            )
        )
    print_table(
        "SWEEP-FAIL: outcome distribution vs abort probability "
        "(20 seeds each)",
        ["p(abort)", "preferred path", "fallback path", "aborted", "parity"],
        rows,
    )
    # Shape: commits monotonically leave the preferred path as p grows.
    preferred = [row[1] for row in rows]
    assert preferred[0] == len(list(SEEDS))
    assert preferred[-1] <= preferred[0]

    spec = random_flexible_spec(branches=2, seed=0)
    benchmark(lambda: run_workflow(spec, 0.3, seed=3))


@pytest.mark.parametrize("p", PROBABILITIES)
def test_workflow_cost_vs_failure_rate(benchmark, p):
    spec = random_flexible_spec(branches=2, seed=1)
    outcome, __ = benchmark(lambda: run_workflow(spec, p, seed=7))
    assert outcome is not None
