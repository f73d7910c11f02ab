"""Compare two result files of bench/run.py: ``compare.py A.json B.json``.

One row per workload and end-to-end metric: both medians with their
quartiles, B as a ratio of A (the base), the metric's bound, and a
verdict —

* ``worse``      B is worse than A by more than the bound;
* ``better``     B is better than A by more than the bound;
* ``unresolved`` neither, but A's own quartile spread is wider than the
  bound, so "no change" cannot be told from noise;
* ``same``       neither, and A is steady enough to say so.

Exits non-zero on any ``worse`` or when B fails a larger share of its
requests than A.  Run on two result files of one commit it is the A/A
check: anything but ``same`` means the benchmark, not the code, moved.
"""

from __future__ import annotations

import json
import sys


def verdict(a: dict, b: dict, better: str, bound: float) -> tuple[str, float]:
    """(verdict, how much worse B is as a share of A's median)."""
    base = a["median"]
    change = (b["median"] - base) / base
    worse_by = change if better == "lower" else -change
    if worse_by > bound:
        return "worse", worse_by
    if worse_by < -bound:
        return "better", worse_by
    if (a["q3"] - a["q1"]) / base > bound:
        return "unresolved", worse_by
    return "same", worse_by


def failed_share(summary: dict) -> float:
    return summary["failed"] / max(1, summary["attempted"])


def compare(a: dict, b: dict) -> tuple[list[tuple], list[str]]:
    """Rows to print, and the reasons (if any) B is rejected."""
    rows, rejected = [], []
    for name, left in a["workloads"].items():
        right = b["workloads"].get(name)
        if right is None:
            rejected.append("%s is missing from B" % name)
            continue
        if failed_share(right) > failed_share(left):
            rejected.append(
                "%s fails %.4f of its requests in B, %.4f in A"
                % (name, failed_share(right), failed_share(left))
            )
        for metric, row in left["metrics"].items():
            other = right["metrics"][metric]
            bound = a["bounds"][metric]
            word, worse_by = verdict(row, other, a["better"][metric], bound)
            if word == "worse":
                rejected.append(
                    "%s %s is worse by %.3f of %.4f %s (bound %.2f)"
                    % (name, metric, worse_by, row["median"], row["unit"], bound)
                )
            rows.append((name, metric, row, other, bound, word))
    return rows, rejected


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__)
        return 2
    with open(argv[0], encoding="utf-8") as handle:
        a = json.load(handle)
    with open(argv[1], encoding="utf-8") as handle:
        b = json.load(handle)
    rows, rejected = compare(a, b)
    print(
        "%-20s %-15s %-30s %-30s %-22s %5s  %s"
        % ("workload", "metric", "A median [q1, q3]", "B median [q1, q3]",
           "B / A (base)", "bound", "verdict")
    )
    for name, metric, row, other, bound, word in rows:
        print(
            "%-20s %-15s %-30s %-30s %-22s %5.2f  %s"
            % (
                name,
                metric,
                "%.4g [%.4g, %.4g]" % (row["median"], row["q1"], row["q3"]),
                "%.4g [%.4g, %.4g]" % (other["median"], other["q1"], other["q3"]),
                "%.3f of %.4g %s"
                % (other["median"] / row["median"], row["median"], row["unit"]),
                bound,
                word,
            )
        )
    for reason in rejected:
        print("REJECTED: %s" % reason)
    return 1 if rejected else 0


if __name__ == "__main__":
    sys.exit(main())
