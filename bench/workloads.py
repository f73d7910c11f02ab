"""The benchmark's workloads, their sizes and their correctness oracles.

Sizes are *counts*, fixed per rep so that journal records, bus ops and
peak memory are comparable between two commits; each count is a rate
this host sustains times the rep's share of ``--seconds``, so a rep
measures for about that long.  ``recover_saga8`` is a fixed-size store.
"""

from __future__ import annotations

#: reps per invocation, each on a fresh topology and directory; the
#: reported value is the median over reps.  Five short reps rather than
#: three long ones: this host slows by a quarter for seconds at a time,
#: and a median over five shrugs off the one or two reps that hit it.
REPS = 5
#: reps per workload when run.py runs every workload (no time cap there).
FULL_REPS = 7
#: throughput is the median rate over this many equal blocks of a rep's
#: timed completions, so a slow second inside a rep does not move it.
THROUGHPUT_BLOCKS = 8
#: share of a rep's requests that run before timing starts.
WARM_SHARE = 0.10
#: closed loops keep this many requests outstanding.
OUTSTANDING = 8
#: in-process engines keep this many instances in flight.
IN_FLIGHT = 16
#: the documented held-out seed for checking a claim (never used while
#: a change is being written; ``--seed`` is recorded in every result).
HELD_OUT_SEED = 7919

WORKLOADS = {
    "saga5_open": {
        "why": "open loop at 100 req/s, a third of capacity: every layer "
        "is on a 5-step saga's path with no queueing, so p50 is what a "
        "caller feels and each layer's saving shows as its share of it",
        "kind": "net",
        "steps": 5,
        "abort_last": False,
        "expect": "commit",
        "loop": "open",
        "per_second": 100,
    },
    "saga1_closed": {
        "why": "closed loop, 8 outstanding 1-step sagas: six bus ops and "
        "polling per single activity, so it is transport-bound and moves "
        "with pipelining, batching, codec or fewer empty polls",
        "kind": "net",
        "steps": 1,
        "abort_last": False,
        "expect": "commit",
        "loop": "closed",
        "per_second": 500,
    },
    "saga16_abort_closed": {
        "why": "closed loop, 16-step saga whose last step aborts: 15 "
        "forward steps and 15 reverse compensations per request over the "
        "same six bus ops, so it is navigator- and journal-bound",
        "kind": "net",
        "steps": 16,
        "abort_last": True,
        "expect": "abort_last",
        "loop": "closed",
        "per_second": 75,
    },
    "flex_fig3_fsync": {
        "why": "Figure 3 flexible transaction on an in-process engine, no "
        "bus, group commit every 16 records: all three paths and partial "
        "compensation occur, fsync weighs most here; a net change must not "
        "move it",
        "kind": "flex",
        "per_second": 400,
    },
    "recover_saga8": {
        "why": "restart over a store of 600 finished and 200 half-executed "
        "8-step sagas: reads the journal and checkpoint the other workloads "
        "write, so a checkpoint change trades it against saga16_abort_closed",
        "kind": "recover",
        "steps": 8,
        "finished": 600,
        "half": 200,
        "abort_p": 0.1,
    },
}


def sizes(name: str, rep_seconds: float, quick: bool) -> dict:
    """Request counts of one rep of ``name``."""
    spec = WORKLOADS[name]
    if spec["kind"] == "recover":
        scale = 0.05 if quick else 1.0
        return {
            "finished": max(20, int(spec["finished"] * scale)),
            "half": max(10, int(spec["half"] * scale)),
        }
    timed = max(30, int(spec["per_second"] * rep_seconds))
    return {"warm": max(OUTSTANDING, int(timed * WARM_SHARE)), "timed": timed}


def step_names(steps: int) -> list[str]:
    return ["t%02d" % index for index in range(1, steps + 1)]


# ---------------------------------------------------------------------------
# oracles: each returns None, or a sentence saying what was wrong
# ---------------------------------------------------------------------------


def check_saga_reply(body: dict, steps: int, expect: str) -> str | None:
    """A node's reply to one saga request, as the caller sees it;
    ``expect`` is ``commit`` or ``abort_last``."""
    abort_last = expect == "abort_last"
    if body.get("state") != "finished":
        return "reply state %r" % body.get("state")
    output = body.get("output") or {}
    names = step_names(steps)
    committed = names[:-1] if abort_last else names
    for name in names:
        expected = 1 if name in committed else 0
        if output.get("State_%s" % name) != expected:
            return "State_%s is %r" % (name, output.get("State_%s" % name))
    if abort_last and output.get("_RC") == 0:
        return "_RC is 0 on an aborting saga"
    if not abort_last and output.get("_RC") != 0:
        return "_RC is %r on a committing saga" % output.get("_RC")
    return None


def check_saga_outcome(outcome, names: list[str], expect: str) -> str | None:
    """The saga guarantee on one finished instance: ``T1..Tn``, or
    ``T1..Tj; Cj..C1``.  ``expect`` narrows it: ``commit`` (all steps),
    ``abort_last`` (j = n - 1) or ``any``."""
    executed, compensated = list(outcome.executed), list(outcome.compensated)
    if executed != names[: len(executed)]:
        return "executed %s is not a prefix" % executed
    if outcome.committed:
        if executed != names or compensated:
            return "committed with executed %s, compensated %s" % (
                executed,
                compensated,
            )
    elif compensated != executed[::-1]:
        return "compensated %s after executing %s" % (compensated, executed)
    if expect == "commit" and not outcome.committed:
        return "aborted, expected commit"
    if expect == "abort_last" and (
        outcome.committed or executed != names[:-1]
    ):
        return "expected abort at the last step, executed %s" % executed
    return None


def check_flex_outcome(outcome, spec) -> tuple[str | None, str]:
    """One Figure 3 instance: a declared path committed and whatever was
    compensated is a reverse-ordered subset of the compensatable members
    off that path — or it aborted with everything compensated that
    way.  Returns (problem, label) with label ``p1``/``p2``/``p3``/
    ``aborted`` for the outcome histogram."""
    compensatable = [
        name for name in spec.members if spec.member(name).compensatable
    ]
    order = {name: index for index, name in enumerate(compensatable)}
    compensated = list(outcome.compensated)
    problem = None
    if any(name not in order for name in compensated):
        problem = "compensated a non-compensatable member: %s" % compensated
    elif [order[name] for name in compensated] != sorted(
        (order[name] for name in compensated), reverse=True
    ):
        problem = "compensations out of reverse order: %s" % compensated
    if not outcome.committed:
        return problem, "aborted"
    paths = [list(path) for path in spec.paths]
    if outcome.committed_path not in paths:
        return "committed members %s are no declared path" % (
            outcome.committed_members,
        ), "none"
    if set(compensated) & set(outcome.committed_path):
        problem = "compensated a member of the committed path"
    return problem, "p%d" % (paths.index(outcome.committed_path) + 1)
