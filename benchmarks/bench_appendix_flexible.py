"""APP-F — the appendix's flexible-transaction execution example.

Every branch the appendix narrates for Figure 4's process is asserted
against the audit trail of the translated process:

* T1 aborts → everything else terminated by dead-path elimination;
* T2 aborts → T1's compensation executes, the rest dies;
* T4 aborts → T3 "is executed until it successfully commits";
* T5/T6/T8 abort → the compensation block containing T5⁻¹, T6⁻¹ runs
  (driven by the data-connector-supplied return codes), then T7 runs
  until it commits.
"""

import pytest

from repro.tx import AbortScript, FailNTimes

from _helpers import build_fig3_engine, print_table
from repro.core.bindings import workflow_outcome


def run(policies):
    engine, translation, db = build_fig3_engine(dict(policies))
    result = engine.run_process(translation.process_name)
    outcome = workflow_outcome(engine, translation, result.instance_id)
    return engine, result, outcome


def test_t1_aborts_dead_path_terminates_all(benchmark):
    engine, result, outcome = run({"t1": AbortScript([1])})
    assert result.finished
    assert not outcome.committed
    dead = set(result.dead_activities)
    assert {"t2", "t3", "t4", "t7"} <= dead
    benchmark(lambda: run({"t1": AbortScript([1])}))


def test_t2_aborts_compensates_t1(benchmark):
    engine, result, outcome = run({"t2": AbortScript([1])})
    assert outcome.compensated == ["t1"]
    assert not outcome.committed
    order = engine.execution_order(result.instance_id)
    assert "Comp_t1" in order
    benchmark(lambda: run({"t2": AbortScript([1])}))


def test_t4_aborts_t3_retried_until_commit(benchmark):
    engine, result, outcome = run(
        {"t4": AbortScript([1]), "t3": FailNTimes(2)}
    )
    assert outcome.committed
    assert outcome.committed_path == ["t1", "t2", "t3"]
    assert engine.audit.attempts(result.instance_id, "t3") == 3
    benchmark(
        lambda: run({"t4": AbortScript([1]), "t3": FailNTimes(2)})
    )


@pytest.mark.parametrize("who", ["t5", "t6", "t8"])
def test_block_failure_compensates_then_t7(benchmark, who):
    engine, result, outcome = run(
        {who: AbortScript([1]), "t7": FailNTimes(1)}
    )
    assert outcome.committed
    assert outcome.committed_path == ["t1", "t2", "t4", "t7"]
    order = engine.execution_order(result.instance_id)
    # "Once the compensating block commits, T7 is executed until it
    # commits" — T7 runs after any compensation, and retried once here.
    assert order[-1] == "t7" or "t7" in order
    assert engine.audit.attempts(result.instance_id, "t7") == 2
    expected_comp = {"t5": [], "t6": ["t5"], "t8": ["t6", "t5"]}[who]
    assert outcome.compensated == expected_comp
    benchmark(lambda: run({who: AbortScript([1]), "t7": FailNTimes(1)}))


def test_appendix_summary_table(benchmark):
    rows = []
    cases = [
        ("t1 aborts", {"t1": AbortScript([1])}),
        ("t2 aborts", {"t2": AbortScript([1])}),
        ("t4 aborts", {"t4": AbortScript([1]), "t3": FailNTimes(1)}),
        ("t5 aborts", {"t5": AbortScript([1])}),
        ("t6 aborts", {"t6": AbortScript([1])}),
        ("t8 aborts", {"t8": AbortScript([1])}),
    ]
    for label, policies in cases:
        engine, result, outcome = run(policies)
        rows.append(
            (
                label,
                "commit" if outcome.committed else "abort",
                "->".join(outcome.committed_path) or "-",
                ",".join(outcome.compensated) or "-",
                len(result.dead_activities),
            )
        )
    print_table(
        "APP-F: appendix branches through the translated process",
        ["scenario", "outcome", "path", "compensated", "dead activities"],
        rows,
    )
    benchmark(lambda: run({}))
