"""Helpers shared by the benchmark's parent and child processes:
the child report protocol, ``/proc`` readings and order statistics."""

from __future__ import annotations

import json
import os
import resource
import statistics
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC_DIR = os.path.join(os.path.dirname(BENCH_DIR), "src")


def use_repo_sources() -> None:
    """Make ``repro`` importable from the checkout this file sits in."""
    if SRC_DIR not in sys.path:
        sys.path.insert(0, SRC_DIR)


def emit(kind: str, payload: dict) -> None:
    """One protocol line (``READY {...}`` / ``REPORT {...}``) to the
    parent, which reads the child's stdout."""
    sys.stdout.write("%s %s\n" % (kind, json.dumps(payload)))
    sys.stdout.flush()


def process_usage() -> dict:
    """This process's peak resident set and CPU seconds so far."""
    peak_kb = 0
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                peak_kb = int(line.split()[1])
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return {
        "peak_rss_mb": peak_kb / 1024.0,
        "cpu_s": usage.ru_utime + usage.ru_stime,
    }


def filesystem_type(path: str) -> str:
    """Filesystem type of the mount holding ``path`` (longest prefix
    match in ``/proc/mounts``)."""
    path = os.path.realpath(path)
    best, found = "", "unknown"
    with open("/proc/mounts", encoding="utf-8") as handle:
        for line in handle:
            parts = line.split()
            mount = parts[1]
            if (
                path == mount or path.startswith(mount.rstrip("/") + "/")
            ) and len(mount) > len(best):
                best, found = mount, parts[2]
    return found


def quantile(values, q: float) -> float:
    """Nearest-rank quantile of ``values`` (q in [0, 1])."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) of a handful of reps, by the inclusive method:
    with five reps q1 and q3 are the second and fourth ordered values,
    which bracket the true median with 62% confidence and ignore one
    disturbed rep on either side.  (The exclusive method would return
    nearly the minimum and maximum.)  A single value is its own
    quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3
