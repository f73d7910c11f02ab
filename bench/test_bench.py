"""Smoke tests of the benchmark itself: ``pytest bench/ -q``.

Not part of the tier-1 suite (``testpaths`` is ``tests``).  One
``--quick`` run — tiny sizes, one rep, all five workloads plus the
traced rep — feeds every test but the broken-oracle one.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

import compare  # noqa: E402
import run  # noqa: E402
from ladder import PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


@pytest.fixture(scope="module")
def quick(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("ledger") / "quick.json")
    assert run.main(["--quick", "--out", path]) == 0
    with open(path, encoding="utf-8") as handle:
        return path, json.load(handle)


@pytest.fixture(scope="module")
def contract():
    path = os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json")
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def test_names_match_the_contract(quick, contract):
    __, result = quick
    assert [w["name"] for w in contract["workloads"]] == list(WORKLOADS)
    assert sorted(result["workloads"]) == sorted(WORKLOADS)
    for row in contract["workloads"]:
        assert row["why"] == WORKLOADS[row["name"]]["why"]
    assert [
        (m["name"], m["unit"], m["better"], m["bound"])
        for m in contract["end_to_end"]
    ] == run.END_TO_END
    assert [
        (m["name"], m["unit"], m["better"]) for m in contract["per_layer"]
    ] == PER_LAYER
    assert contract["paths"] == ["bench"]
    assert contract["run_seconds"] == run.DEFAULT_SECONDS
    for summary in result["workloads"].values():
        assert sorted(summary["metrics"]) == sorted(m[0] for m in run.END_TO_END)
        assert {m[0] for m in PER_LAYER} <= set(summary["ladder"])
        assert summary["failed"] == 0
        assert summary["missing_wrap_points"] == []
    assert result["claim"] is None


@pytest.mark.parametrize("trace", [0, 1])
def test_contract_line(contract, trace):
    done = subprocess.run(
        contract["command"]
        + ["--workload", "flex_fig3_fsync", "--seed", "2", "--seconds", "1",
           "--trace", str(trace), "--quick"],
        cwd=os.path.dirname(BENCH_DIR),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert sorted(line) == ["attempted", "correct", "failed", "metrics"]
    assert line["correct"] is True and line["failed"] == 0
    expected = contract["per_layer"] if trace else contract["end_to_end"]
    assert list(line["metrics"]) == [m["name"] for m in expected]
    for metric in expected:
        assert line["metrics"][metric["name"]]["unit"] == metric["unit"]


def test_trace_children_sum_to_the_root(quick):
    __, result = quick
    ladder = result["workloads"]["saga5_open"]["ladder"]
    parts = sum(ladder["path_mean_ms"].values())
    assert parts == pytest.approx(ladder["path_root_mean_ms"], rel=1e-6)
    assert ladder["trace_coverage"] >= 0.85


def test_no_bus_on_the_local_workloads(quick):
    __, result = quick
    for name in ("flex_fig3_fsync", "recover_saga8"):
        ladder = result["workloads"][name]["ladder"]
        for row in ("net.client_ms", "net.frames_ms", "bus_ops_per_request"):
            assert ladder[row] == 0
    assert result["workloads"]["saga1_closed"]["ladder"]["net.client_ms"] > 0


def test_the_committed_numbers_show_the_workloads_discriminate():
    path = os.path.join(BENCH_DIR, "out", "ledger_a.json")
    with open(path, encoding="utf-8") as handle:
        workloads = json.load(handle)["workloads"]
    share = {
        name: summary["ladder"]["wall_share"]
        for name, summary in workloads.items()
    }
    for name in ("flex_fig3_fsync", "recover_saga8"):
        assert share[name].get("net.client", 0) == 0
    assert (
        share["saga1_closed"]["net.client"]
        > 2 * share["saga16_abort_closed"]["net.client"]
    )
    assert max(share, key=lambda name: share[name].get("fsync", 0)) == (
        "flex_fig3_fsync"
    )

    def navigator_and_journal(name):
        return share[name]["wfms.navigator"] + share[name]["wfms.journal"]

    assert navigator_and_journal("saga16_abort_closed") > navigator_and_journal(
        "saga1_closed"
    )
    assert workloads["saga5_open"]["ladder"]["trace_coverage"] >= 0.85


def test_compare_of_a_file_with_itself_is_all_same(quick):
    path, result = quick
    rows, rejected = compare.compare(result, result)
    assert rows and not rejected
    assert {row[-1] for row in rows} == {"same"}
    assert compare.main([path, path]) == 0


def test_a_broken_oracle_fails_the_run(monkeypatch):
    monkeypatch.setitem(WORKLOADS["saga16_abort_closed"], "expect", "commit")
    assert run.main(
        ["--workload", "saga16_abort_closed", "--trace", "0", "--quick"]
    ) == 1
