"""Every reached outcome vector of a translated model, run natively and
as a workflow side by side.

The paper claims that a translated process keeps its model's guarantee
for *every* execution.  This module checks the claim exhaustively at
the sizes the repo ships, in the manner of Song & Liu's state-space
exploration of workflow nets: every subtransaction and compensation
outcome comes from a scripted decision source, every run records the
decisions it reached, and a depth-first walk flips the newest decision
that still has an untried outcome until none is left.  Only *reached*
decisions branch, so a linear n-step saga costs 2^n leaves (n + 1 abort
positions, times each compensation failing once or not), not a full
product over every conceivable attempt.

A decision is keyed by who attempts and which attempt it is, so the
native executor and the translated process read the same outcome for
the same attempt.  The domains:

* compensatable and pivot members commit or abort, on every attempt;
* retriable members commit or abort on attempts 1 and 2 and commit on
  the third (they commit after r aborts, r <= 2);
* compensations commit, or fail once and then commit.

``walk(case)`` returns one :class:`Leaf` per reached outcome vector,
in depth-first order.  ``divergence(case, leaf)`` names how the
workflow run differs from the native one (``None`` for parity); the
tests in ``tests/core/test_exhaustive.py`` hold each case to its
model's guarantee, to parity or a documented divergence, and to a
leaf count computed in closed form.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from typing import Any

from repro.core.bindings import register_programs, workflow_outcome
from repro.core.contract import ContractSpec, NativeContractExecutor
from repro.core.flexible import FlexibleSpec, NativeFlexibleExecutor
from repro.core.sagas import NativeSagaExecutor, SagaSpec, verify_saga_guarantee
from repro.tx import SimDatabase, Subtransaction
from repro.tx.subtransaction import write_value
from repro.wfms.engine import Engine

#: Outcome fields the workflow outcome reader reports; the native
#: executor's extras (``dead``, ``failed_step``, ``history``) have no
#: workflow counterpart.
REPORTED = (
    "committed",
    "executed",
    "compensated",
    "committed_members",
    "committed_path",
    "skipped",
)

#: Attempts of a retriable member that may still abort.
RETRIABLE_ABORTS = 2


class DecisionSource:
    """Scripted outcomes for one leaf.

    ``prefix`` forces the outcomes (True = abort) of the first
    decisions reached, in reach order; every later decision commits.
    """

    def __init__(self, prefix: list[bool]):
        self._prefix = prefix
        #: [key, aborted] per decision, in reach order.
        self.reached: list[tuple[tuple, bool]] = []
        self._aborts: dict[tuple, bool] = {}

    def should_abort(self, key: tuple, may_abort: bool) -> bool:
        if not may_abort:
            return False
        if key not in self._aborts:
            index = len(self.reached)
            aborted = index < len(self._prefix) and self._prefix[index]
            self.reached.append((key, aborted))
            self._aborts[key] = aborted
        return self._aborts[key]

    def next_prefix(self) -> list[bool] | None:
        """The depth-first successor of this leaf: the newest decision
        that committed now aborts.  None when every reached decision
        has had both outcomes."""
        for index in range(len(self.reached) - 1, -1, -1):
            if not self.reached[index][1]:
                return [a for __, a in self.reached[:index]] + [True]
        return None

    def decisions(self) -> list[list]:
        return [list(key) + [aborted] for key, aborted in self.reached]


class ScriptedPolicy:
    """A :class:`~repro.tx.failures.FailurePolicy` that takes every
    attempt's outcome from a :class:`DecisionSource`."""

    def __init__(self, source: DecisionSource, role: str, name: str,
                 retriable: bool):
        self.source = source
        self.role = role
        self.name = name
        self.retriable = retriable

    def should_abort(self, attempt: int) -> bool:
        if self.role == "C":
            may_abort = attempt == 1
        elif self.retriable:
            may_abort = attempt <= RETRIABLE_ABORTS
        else:
            may_abort = True
        return self.source.should_abort(
            (self.role, self.name, attempt), may_abort
        )


@dataclass
class Case:
    """One specification to walk."""

    label: str
    spec: Any
    translation: Any
    compensate_completed: bool = False
    #: Process input: a contract's context.
    context: dict[str, Any] = field(default_factory=dict)

    @property
    def retriable(self) -> set[str]:
        if isinstance(self.spec, FlexibleSpec):
            return {n for n, m in self.spec.members.items() if m.retriable}
        return set()


@dataclass
class Run:
    outcome: dict[str, Any]
    #: Every subtransaction attempt: [name, attempt, committed].
    order: list[list]
    db: dict[str, Any]


@dataclass
class Leaf:
    decisions: list[list]
    native: Run
    workflow: Run
    #: The workflow instance's activity execution order.
    activities: list[str]

    def digest(self) -> str:
        document = json.dumps(dataclasses.asdict(self), sort_keys=True)
        return hashlib.sha256(document.encode("utf-8")).hexdigest()


def bindings(case: Case, source: DecisionSource, database: SimDatabase,
             log: list):
    """Each member writes its flag, each compensation clears it; every
    attempt's outcome comes from ``source``."""
    retriable = case.retriable
    actions = {
        name: Subtransaction(
            name, database, write_value(name, 1),
            policy=ScriptedPolicy(source, "T", name, name in retriable),
            recorder=log,
        )
        for name in case.translation.programs
    }
    compensations = {
        name: Subtransaction(
            "undo_%s" % name, database, write_value(name, 0),
            policy=ScriptedPolicy(source, "C", name, False),
            recorder=log,
        )
        for name in case.translation.compensation_programs
    }
    return actions, compensations


def run_native(case: Case, actions, compensations):
    spec = case.spec
    if isinstance(spec, SagaSpec):
        return NativeSagaExecutor(spec, actions, compensations).run(
            compensate_completed=case.compensate_completed
        )
    if isinstance(spec, FlexibleSpec):
        return NativeFlexibleExecutor(spec, actions, compensations).run()
    assert isinstance(spec, ContractSpec)
    return NativeContractExecutor(spec, actions, compensations).run(
        dict(case.context)
    )


def _run(outcome, log: list, database: SimDatabase) -> Run:
    reported = {
        name: getattr(outcome, name)
        for name in REPORTED
        if hasattr(outcome, name)
    }
    return Run(
        reported,
        [[entry.name, entry.attempt, entry.committed] for entry in log],
        dict(sorted(database.snapshot().items())),
    )


def walk(case: Case) -> list[Leaf]:
    """Run ``case`` natively and as a workflow on every reached outcome
    vector; one engine serves every leaf."""
    engine = Engine()
    engine.register_definition(case.translation.process)
    leaves = []
    prefix: list[bool] | None = []
    while prefix is not None:
        source = DecisionSource(prefix)
        native_db, native_log = SimDatabase(), []
        native = run_native(
            case, *bindings(case, source, native_db, native_log)
        )
        workflow_db, workflow_log = SimDatabase(), []
        register_programs(
            engine, case.translation,
            *bindings(case, source, workflow_db, workflow_log),
        )
        instance = engine.start_process(
            case.translation.process_name, dict(case.context)
        )
        engine.run()
        outcome = workflow_outcome(engine, case.translation, instance)
        leaves.append(
            Leaf(
                source.decisions(),
                _run(native, native_log, native_db),
                _run(outcome, workflow_log, workflow_db),
                engine.execution_order(instance),
            )
        )
        prefix = source.next_prefix()
    return leaves


def digest(leaves: list[Leaf]) -> str:
    """One digest for a whole walk, in leaf order."""
    joined = "\n".join(leaf.digest() for leaf in leaves)
    return hashlib.sha256(joined.encode("ascii")).hexdigest()


# -- what every leaf must satisfy -------------------------------------------

#: A parallel saga's started siblings finish before compensation begins,
#: so the workflow runs (and compensates) members the sequential native
#: executor never started (EXPERIMENTS.md, Extensions).
SIBLINGS_FINISH = "started siblings finish"
#: Concurrent branches are compensated in the workflow's reverse
#: topological order, which need not be the reverse of the native
#: executor's sequential order.
SIBLING_ORDER = "siblings compensate in another reverse-topological order"
#: A member shared by two alternatives is compensated with the abandoned
#: one and runs again on the next, where the native executor keeps it
#: (EXPERIMENTS.md, FIG4).
SHARED_RERUN = "shared member compensated and run again"
#: An abort of the shared member itself: the native executor marks it
#: dead on every path, the workflow runs it again on the next
#: alternative (EXPERIMENTS.md, FIG4).
SHARED_DEAD = "aborted shared member runs again"


def persisting(db: dict[str, Any]) -> dict[str, Any]:
    """The effects that outlive compensation (a compensation writes 0)."""
    return {key: value for key, value in db.items() if value}


def guarantee_violation(case: Case, run: Run) -> str | None:
    """How ``run`` breaks its model's guarantee, or None.

    Every model is all-or-nothing on the database: what persists is the
    flags of exactly the members the outcome reports committed.
    """
    spec, outcome = case.spec, run.outcome
    if isinstance(spec, FlexibleSpec):
        path = outcome["committed_path"]
        if outcome["committed"] and path not in spec.paths:
            return "committed path %s is not a path" % path
        if sorted(outcome["committed_members"]) != sorted(path):
            return "committed members %s off path %s" % (
                outcome["committed_members"], path)
        kept = path
    else:
        executed, compensated = outcome["executed"], outcome["compensated"]
        undone = not outcome["committed"] or case.compensate_completed
        if not undone and compensated:
            return "committed but compensated %s" % compensated
        if undone and sorted(compensated) != sorted(executed):
            return "compensated %s, executed %s" % (compensated, executed)
        if isinstance(spec, SagaSpec):
            problem = _saga_violation(spec, executed, compensated, undone)
            if problem:
                return problem
        elif undone and compensated != executed[::-1]:
            return "compensated %s out of reverse order" % compensated
        kept = [] if undone else executed
    expected = {name: 1 for name in kept}
    if persisting(run.db) != expected:
        return "database keeps %s, outcome says %s" % (
            persisting(run.db), expected)
    return None


def _saga_violation(spec: SagaSpec, executed, compensated, undone):
    names = [step.name for step in spec.steps]
    if not undone and sorted(executed) != sorted(names):
        return "committed with %s of %s" % (executed, names)
    for source, target in spec.order:
        if target in executed and source not in executed:
            return "%s ran without its predecessor %s" % (target, source)
        if target in compensated and source in compensated and (
            compensated.index(target) > compensated.index(source)
        ):
            return "%s compensated before %s" % (source, target)
    if spec.is_linear and not verify_saga_guarantee(
        spec, executed, compensated
    ):
        return "not T1..Tn or T1..Tj;Cj..C1"
    return None


def shared_members(spec: FlexibleSpec) -> set[str]:
    """Members that sit on more than one node of the path tree."""
    seen: list[str] = []
    nodes = [spec.tree()]
    while nodes:
        node = nodes.pop()
        seen.extend(node.segment)
        nodes.extend(node.children)
    return {name for name in seen if seen.count(name) > 1}


def _attempts(run: Run) -> set[str]:
    return {name for name, __, __ in run.order}


def _without(log: list[list], member: str) -> list[list]:
    """``log`` without ``member``'s attempts and compensations."""
    return [entry for entry in log
            if entry[0] not in (member, "undo_%s" % member)]


def divergence(case: Case, leaf: Leaf) -> str | None:
    """Name the documented divergence that explains how the workflow
    run differs from the native one; None on parity, "unexplained"
    when no documented divergence fits."""
    native, workflow = leaf.native, leaf.workflow
    if native == workflow:
        return None
    spec = case.spec
    same_end = (
        native.outcome["committed"] == workflow.outcome["committed"]
        and persisting(native.db) == persisting(workflow.db)
    )
    if isinstance(spec, SagaSpec) and not spec.is_linear and same_end:
        extra = _attempts(workflow) - _attempts(native)
        siblings = {step.name for step in spec.steps} & extra
        if (
            siblings
            and extra <= siblings | {"undo_%s" % s for s in siblings}
            and set(native.outcome["executed"])
            <= set(workflow.outcome["executed"])
        ):
            return SIBLINGS_FINISH
        if not extra and all(
            sorted(native.outcome[f]) == sorted(workflow.outcome[f])
            for f in ("executed", "compensated")
        ):
            return SIBLING_ORDER
    if isinstance(spec, FlexibleSpec):
        for shared in shared_members(spec):
            native_runs = [c for n, __, c in native.order if n == shared]
            if native_runs == [False] and _attempts(workflow) - _attempts(native):
                return SHARED_DEAD
            if native_runs != [True]:
                continue
            kept = _without(native.order, shared)
            if kept == _without(workflow.order, shared) and (
                same_end
                and native.outcome["committed_path"]
                == workflow.outcome["committed_path"]
            ):
                return SHARED_RERUN
            # The re-run aborts: the workflow abandons the alternative
            # the native executor (which kept the member) completes.
            rerun = [e for e in workflow.order if e[0] == shared][1:2]
            if rerun and not rerun[0][2]:
                cut = workflow.order.index(rerun[0])
                before = _without(workflow.order[:cut], shared)
                if kept[:len(before)] == before:
                    return SHARED_RERUN
    return "unexplained"
