"""The ledger: the repo's end-to-end benchmark.  See bench/README.md.

Two ways to run it::

    python3 bench/run.py [--seed N] [--quick] [--out FILE]
        every workload, reps interleaved round-robin, plus one traced
        rep each; prints every metric and writes the result file that
        bench/compare.py reads.

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1
        one workload (the BENCHMARK.json contract): REPS reps, untraced
        for the end-to-end metrics or traced for the per-layer ones; the
        last line of stdout is one JSON object.

Both exit non-zero when any output is wrong.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from statistics import median

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

from common import (  # noqa: E402
    SRC_DIR,
    filesystem_type,
    quantile,
    quartiles,
)
from ladder import PER_LAYER, local_ladder, net_ladder  # noqa: E402
from workloads import (  # noqa: E402
    HELD_OUT_SEED,
    IN_FLIGHT,
    OUTSTANDING,
    FULL_REPS,
    REPS,
    THROUGHPUT_BLOCKS,
    WORKLOADS,
    sizes,
)

perf = time.perf_counter

#: name, unit, better, regression bound — BENCHMARK.json's end_to_end.
#: Each bound is about three times the widest quartile spread any
#: workload showed over ten seeds on this host (README, "Bounds").
END_TO_END = [
    ("p50_ms", "ms", "lower", 0.20),
    ("p90_ms", "ms", "lower", 0.25),
    ("throughput_rps", "1/s", "higher", 0.20),
    ("peak_rss_mb", "MB", "lower", 0.10),
    ("setup_s", "s", "lower", 0.25),
]
DEFAULT_SECONDS = 12
#: an open-loop rep whose generator ran later than this is re-run once.
MAX_LATENESS_MS = 5.0
WORK_ROOT = os.path.join(BENCH_DIR, ".work")
OUT_DIR = os.path.join(BENCH_DIR, "out")
CHILD_TIMEOUT_S = 150


class Children:
    """The processes of one rep; leaving the block stops and reaps
    whatever is still running."""

    def __init__(self):
        self._procs: list[subprocess.Popen] = []

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        for proc in self._procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            proc.stdout.close()

    def spawn(self, script: str, *args: str) -> subprocess.Popen:
        proc = subprocess.Popen(
            [sys.executable, os.path.join(BENCH_DIR, script), *args],
            stdout=subprocess.PIPE,
            text=True,
            cwd=BENCH_DIR,
        )
        self._procs.append(proc)
        return proc


def _read(proc: subprocess.Popen, kind: str) -> dict:
    """The child's next ``kind`` line; a child that exits without one
    failed (its traceback is already on stderr)."""
    for line in proc.stdout:
        if line.startswith(kind + " "):
            return json.loads(line[len(kind) + 1:])
    raise RuntimeError(
        "%s exited with code %s before %s" % (proc.args[1:3], proc.wait(), kind)
    )


def _finish(proc: subprocess.Popen, stop: bool = False) -> dict:
    if stop:
        proc.send_signal(signal.SIGTERM)
    report = _read(proc, "REPORT")
    proc.wait(timeout=CHILD_TIMEOUT_S)
    return report


def _latency_metrics(latencies: list[float]) -> dict:
    return {
        "p50_ms": 1e3 * quantile(latencies, 0.50),
        "p90_ms": 1e3 * quantile(latencies, 0.90),
        "p99_ms": 1e3 * quantile(latencies, 0.99),
        "latency_samples": len(latencies),
    }


def _throughput(finish_times: list[float], warm: int, tail: int) -> float:
    """Completions per second: the median rate over THROUGHPUT_BLOCKS
    equal blocks of the completions between the warm-th and the one
    ``tail`` before the last (a closed loop's final drain, when fewer
    requests are outstanding, is left out)."""
    ordered = sorted(finish_times)[warm: len(finish_times) - tail]
    # Tiny (--quick) runs get fewer blocks, never shorter ones.
    blocks = max(1, min(THROUGHPUT_BLOCKS, (len(ordered) - 1) // 16))
    size = (len(ordered) - 1) // blocks
    return median(
        [
            size / (ordered[(block + 1) * size] - ordered[block * size])
            for block in range(blocks)
        ]
    )


def _rep(attempted, problems, metrics, exact, cpu_s, generator=None) -> dict:
    return {
        "attempted": attempted,
        "failed": len(problems),
        "problems": dict(list(problems.items())[:5]),
        "metrics": metrics,
        "exact": exact,
        "generator": generator or {},
        "cpu_ms_per_request": {
            process: 1e3 * seconds / attempted
            for process, seconds in cpu_s.items()
        },
    }


def _with_trace(rep: dict, ladder: dict, traces: dict) -> dict:
    rep["ladder"] = ladder
    rep["missing_wrap_points"] = sorted(
        {point for trace in traces.values() for point in trace["missing"]}
    )
    rep["spans"] = traces
    return rep


def rep_net(name: str, seed: int, counts: dict, traced: bool, workdir: str) -> dict:
    spec = WORKLOADS[name]
    base = {"trace": traced, "seed": seed}
    saga = {key: spec[key] for key in ("steps", "abort_last", "expect")}
    started = perf()
    os.makedirs(workdir)
    with Children() as children:
        broker = children.spawn(
            "sut.py", "broker",
            json.dumps({**base, "dir": os.path.join(workdir, "broker")}),
        )
        broker_ready = _read(broker, "READY")
        host, port = broker_ready["address"]
        address = {"host": host, "port": port}
        node = children.spawn(
            "sut.py", "node",
            json.dumps(
                {**base, **saga, **address, "dir": os.path.join(workdir, "node")}
            ),
        )
        node_ready = _read(node, "READY")
        driver = children.spawn(
            "loadgen.py",
            json.dumps(
                {
                    **base, **saga, **address, **counts,
                    "loop": spec["loop"],
                    "rate": spec["per_second"],
                    "process": "Saga_bench",
                }
            ),
        )
        drv = _finish(driver)
        nd = _finish(node, stop=True)
        br = _finish(broker, stop=True)
    nd["setup"] = node_ready["setup"]
    br["ready_cpu_s"] = broker_ready["cpu_s"]

    warm, total = counts["warm"], counts["warm"] + counts["timed"]
    problems = {**nd["violations"], **drv["problems"]}
    received = drv["received_at"]
    done = [index for index in range(total) if received[index] is not None]
    generator = {}
    if spec["loop"] == "open":
        timed, tail = [index for index in done if index >= warm], 0
        late = [
            1e3 * (drv["sent_at"][i] - drv["due"][i]) for i in range(warm, total)
        ]
        generator = {"late_p50_ms": median(late), "late_max_ms": max(late)}
    else:
        order = sorted(done, key=lambda i: received[i])
        timed, tail = order[warm: len(order) - OUTSTANDING], OUTSTANDING
    metrics = _latency_metrics([received[i] - drv["due"][i] for i in timed])
    metrics.update(
        throughput_rps=_throughput([received[i] for i in done], warm, tail),
        setup_s=drv["ready_at"] - started,
        peak_rss_mb=max(nd["peak_rss_mb"], br["peak_rss_mb"]),
    )
    exact = {
        "journal_records_per_request": nd["journal_records"] / total,
        "buslog_records_per_request": (br["buslog_records"] or 0) / total,
        "useful_bus_ops_per_request": sum(
            br["queues"].get(queue, {}).get(key, 0)
            for queue in ("node:worker", "replies:driver")
            for key in ("sent", "delivered", "acked")
        ) / total,
    }
    rep = _rep(
        total, problems, metrics, exact,
        {"node": nd["cpu_s"], "broker": br["cpu_s"], "driver": drv["cpu_s"]},
        generator,
    )
    if traced:
        _with_trace(
            rep,
            net_ladder(drv, nd, br, timed),
            {"driver": drv["trace"], "node": nd["trace"], "broker": br["trace"]},
        )
    return rep


def _local_child(role: str, config: dict) -> tuple[dict, float]:
    """Run one in-process workload's child to its report; returns the
    report and the set-up time (process start to ready)."""
    started = perf()
    os.makedirs(config["dir"])
    with Children() as children:
        child = _finish(children.spawn("sut.py", role, json.dumps(config)))
    return child, child["ready_at"] - started


def rep_flex(name: str, seed: int, counts: dict, traced: bool, workdir: str) -> dict:
    child, setup_s = _local_child(
        "flex", {"trace": traced, "seed": seed, "dir": workdir, **counts}
    )
    warm, total = counts["warm"], counts["warm"] + counts["timed"]
    metrics = _latency_metrics(
        [
            done - begun
            for begun, done in zip(child["begun"][warm:], child["finished"][warm:])
        ]
    )
    metrics.update(
        throughput_rps=_throughput(child["finished"], warm, IN_FLIGHT),
        setup_s=setup_s,
        peak_rss_mb=child["peak_rss_mb"],
    )
    exact = {
        "journal_records_per_request": child["journal_records"] / total,
        "steps_per_request": child["steps"] / total,
    }
    for label in sorted(set(child["labels"])):
        exact["outcome_" + label] = child["labels"].count(label)
    rep = _rep(
        total, child["problems"], metrics, exact, {"engine": child["cpu_s"]}
    )
    if traced:
        _with_trace(rep, local_ladder(child, total), {"engine": child["trace"]})
    return rep


def rep_recover(name: str, seed: int, counts: dict, traced: bool, workdir: str) -> dict:
    spec = WORKLOADS[name]
    child, setup_s = _local_child(
        "recover",
        {
            "trace": traced, "seed": seed, "dir": workdir,
            "steps": spec["steps"], "abort_p": spec["abort_p"], **counts,
        },
    )
    problems = dict(child["problems"])
    half = child["unfinished_at_crash"]
    if not half:
        problems["preload"] = "no instance was half-executed at the crash"
    recovery_s = child["recovery_s"]
    # A caller sees its half-executed saga finished when recover()
    # returns, so every resumed instance has the same latency.
    metrics = dict.fromkeys(("p50_ms", "p90_ms", "p99_ms"), 1e3 * recovery_s)
    metrics.update(
        latency_samples=half,
        recovery_s=recovery_s,
        throughput_rps=max(1, half) / recovery_s,
        setup_s=setup_s,
        peak_rss_mb=child["peak_rss_mb"],
    )
    exact = {
        "journal_records": child["journal_records"],
        "half_executed": half,
        "suffix_records": child["last_recovery"]["suffix_records"],
        "replayed": child["replayed"],
    }
    rep = _rep(
        counts["finished"] + counts["half"], problems, metrics, exact,
        {"engine": child["cpu_s"]},
    )
    if traced:
        _with_trace(
            rep, local_ladder(child, max(1, half)), {"engine": child["trace"]}
        )
    return rep


REP_KINDS = {"net": rep_net, "flex": rep_flex, "recover": rep_recover}


def run_rep(name: str, seed: int, rep_seconds: float, traced: bool, quick: bool) -> dict:
    """One rep of one workload on a fresh topology and directory.  An
    open-loop rep whose generator ran late is marked invalid and run
    once more."""
    counts = sizes(name, rep_seconds, quick)
    invalid = 0
    for __ in range(2):
        workdir = os.path.join(
            WORK_ROOT, "%s-%d-%d" % (name, os.getpid(), time.monotonic_ns())
        )
        try:
            rep = REP_KINDS[WORKLOADS[name]["kind"]](
                name, seed, counts, traced, workdir
            )
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        if rep["generator"].get("late_max_ms", 0.0) <= MAX_LATENESS_MS:
            break
        invalid += 1
    rep["invalid_reps"] = invalid
    if traced:
        # Raw spans are large: written out now, not kept with the rep.
        write_trace(name, rep.pop("spans"))
    return rep


# ---------------------------------------------------------------------------
# summaries
# ---------------------------------------------------------------------------


def _spread(values: list[float]) -> dict:
    q1, mid, q3 = quartiles(values)
    return {"median": mid, "q1": q1, "q3": q3, "values": values}


def inexact_counts(reps: list[dict]) -> list[str]:
    """Deterministic counts that differ between reps of one workload."""
    wrong = []
    for key in reps[0]["exact"]:
        values = {rep["exact"].get(key) for rep in reps}
        if len(values) > 1:
            wrong.append("%s: %s" % (key, sorted(values, key=str)))
    return wrong


def summarise(name: str, plain: list[dict], traced: list[dict]) -> dict:
    reps = plain + traced
    summary = {
        "why": WORKLOADS[name]["why"],
        "attempted": sum(rep["attempted"] for rep in reps),
        "failed": sum(rep["failed"] for rep in reps),
        "problems": [rep["problems"] for rep in reps if rep["problems"]],
        "inexact_counts": inexact_counts(reps),
        "exact": reps[0]["exact"],
        "invalid_reps": sum(rep["invalid_reps"] for rep in reps),
    }
    if plain:
        summary["metrics"] = {
            metric: dict(
                _spread([rep["metrics"][metric] for rep in plain]), unit=unit
            )
            for metric, unit, __, __ in END_TO_END
        }
        summary["reported"] = {
            key: _spread([rep["metrics"][key] for rep in plain])
            for key in ("p99_ms", "latency_samples", "recovery_s")
            if key in plain[0]["metrics"]
        }
        summary["generator"] = {
            key: max(rep["generator"][key] for rep in plain)
            for key in plain[0]["generator"]
        }
        summary["cpu_ms_per_request"] = {
            key: median([rep["cpu_ms_per_request"][key] for rep in plain])
            for key in plain[0]["cpu_ms_per_request"]
        }
    if traced:
        ladder = {}
        for key, value in traced[0]["ladder"].items():
            values = [rep["ladder"].get(key) for rep in traced]
            if isinstance(value, dict):
                ladder[key] = value
            elif any(v is None for v in values):
                ladder[key] = None
            else:
                ladder[key] = median(values)
        summary["ladder"] = ladder
        summary["missing_wrap_points"] = traced[0]["missing_wrap_points"]
    if plain and traced:
        summary["tracing_overhead"] = {
            metric: median([rep["metrics"][metric] for rep in traced])
            / summary["metrics"][metric]["median"]
            for metric in ("p50_ms", "throughput_rps")
        }
    return summary


def correct(summary: dict) -> bool:
    return summary["failed"] == 0 and not summary["inexact_counts"]


def print_summary(name: str, summary: dict) -> None:
    print("%s  attempted %d  failed %d" % (
        name, summary["attempted"], summary["failed"]))
    for metric, row in summary.get("metrics", {}).items():
        print("  %-28s %12.4f %-5s (q1 %.4f, q3 %.4f)" % (
            metric, row["median"], row["unit"], row["q1"], row["q3"]))
    for key, row in summary.get("reported", {}).items():
        print("  %-28s %12.4f       (reported, not gated)" % (key, row["median"]))
    for key, value in summary.get("generator", {}).items():
        print("  generator %-18s %12.4f ms" % (key, value))
    units = {layer: unit for layer, unit, __ in PER_LAYER}
    for key, value in summary.get("ladder", {}).items():
        if key in units:
            shown = "null" if value is None else "%12.4f" % value
            print("  %-28s %12s %s" % (key, shown, units[key]))
    for key, value in summary.get("tracing_overhead", {}).items():
        print("  traced/untraced %-12s %12.4f" % (key, value))
    for key, value in summary["exact"].items():
        print("  exact %-22s %12s" % (key, value))
    for line in summary["inexact_counts"]:
        print("  NOT EXACT across reps: %s" % line)
    for problems in summary["problems"]:
        print("  WRONG: %s" % problems)


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "workdir_fstype": filesystem_type(BENCH_DIR),
        "loadavg_start": list(os.getloadavg()),
    }


def write_trace(name: str, spans: dict) -> None:
    """Raw spans of the latest traced rep, for whoever wants more than
    the ladder (bench/out/trace_<workload>.json, not committed)."""
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, "trace_%s.json" % name)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(spans, handle)


def run_contract(args) -> int:
    """One workload, the BENCHMARK.json way."""
    traced = bool(args.trace)
    reps = [
        run_rep(args.workload, args.seed, args.seconds / REPS, traced, args.quick)
        for __ in range(1 if args.quick else REPS)
    ]
    summary = summarise(
        args.workload, [] if traced else reps, reps if traced else []
    )
    print_summary(args.workload, summary)
    if traced:
        for point in summary["missing_wrap_points"]:
            print("missing wrap point %s" % point, file=sys.stderr)
        metrics = {
            layer: {"value": summary["ladder"].get(layer) or 0.0, "unit": unit}
            for layer, unit, __ in PER_LAYER
        }
    else:
        metrics = {
            metric: {"value": summary["metrics"][metric]["median"], "unit": unit}
            for metric, unit, __, __ in END_TO_END
        }
    ok = correct(summary)
    print(
        json.dumps(
            {
                "correct": ok,
                "attempted": summary["attempted"],
                "failed": summary["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0 if ok else 1


def run_all(args) -> int:
    """Every workload; reps interleaved so a slow minute on the host
    lands on every workload's sample alike."""
    rep_seconds = args.seconds / REPS
    reps = 1 if args.quick else FULL_REPS
    env = environment()  # before the load it is about to add
    plain = {name: [] for name in WORKLOADS}
    traced = {name: [] for name in WORKLOADS}
    for __ in range(reps):
        for name in WORKLOADS:
            plain[name].append(
                run_rep(name, args.seed, rep_seconds, False, args.quick)
            )
    for name in WORKLOADS:
        traced[name].append(
            run_rep(name, args.seed, rep_seconds, True, args.quick)
        )
    result = {
        "benchmark": "ledger",
        "claim": None,
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": args.seconds,
        "reps": reps,
        "quick": args.quick,
        "environment": env,
        "bounds": {metric: bound for metric, __, __, bound in END_TO_END},
        "better": {metric: better for metric, __, better, __ in END_TO_END},
        "workloads": {},
    }
    ok = True
    for name in WORKLOADS:
        summary = summarise(name, plain[name], traced[name])
        result["workloads"][name] = summary
        print_summary(name, summary)
        ok = ok and correct(summary)
    result["correct"] = ok
    if args.out:
        os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(result, handle, indent=1, sort_keys=True)
            handle.write("\n")
        print("wrote %s" % args.out)
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--quick", action="store_true",
        help="tiny sizes and one rep: a smoke test, not a measurement",
    )
    parser.add_argument("--out", help="result file (all-workloads mode)")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC_DIR, "repro")):
        print("no system to measure: %s/repro is missing" % SRC_DIR,
              file=sys.stderr)
        return 2
    if args.quick:
        args.seconds = min(args.seconds, 1.5)
    print("seed %d, %s" % (args.seed, environment()))
    if args.workload:
        return run_contract(args)
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main())
