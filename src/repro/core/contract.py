"""ConTract-lite: a third advanced transaction model for FMTM.

The paper notes that conditions "provide the means for discarding some
branches of the control flow and for implementing structures similar
to if-then-else.  Such features are not found in any transaction
model, except in the ConTract model [WR92]" — and §5 claims the
pre-processor "can [be extended] to convert any advanced transaction
model specification".  This module is that extension: a minimal
ConTract model — a script of steps with *entry invariants* and
compensation-based backward recovery — and its translation.

Model semantics (native executor):

* steps run in script order;
* before a step runs, its entry invariant (a condition over the
  contract's context) is evaluated; if false the step is **skipped**,
  unless it is marked ``critical``, in which case the contract fails;
* a step whose subtransaction aborts fails the contract;
* a failed contract compensates every *executed* step in reverse
  order (backward recovery); a completed one commits.

Translation: each step becomes an ``Eval`` activity (a NOP that copies
the context so its outgoing transition conditions can read it)
followed by the step activity; the invariant and its negation label
the two outgoing connectors — exactly the if-then-else the paper says
transaction models lack.  Failures route to a guarded compensation
block: the translation kit's guarded construction over the script's
chain.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.errors import SpecificationError
from repro.tx.subtransaction import Subtransaction, SubtransactionOutcome
from repro.wfms.conditions import parse_condition
from repro.wfms.datatypes import VariableDecl
from repro.wfms.model import (
    PROCESS_INPUT,
    PROCESS_OUTPUT,
    Activity,
    ActivityKind,
    ProcessDefinition,
    StartCondition,
)
from repro.core.compblock import (
    GUARDED,
    NOP_PROGRAM,
    Translation,
    build_compensation_block,
    chain,
    compensated_var,
    longs,
    state_var,
)
from repro.core.saga_translator import SAGA_ABORT_RC, SAGA_COMMIT_RC


@dataclass(frozen=True)
class ContractStep:
    """One step of a ConTract script."""

    name: str
    entry_condition: str = ""     # empty = always runs
    critical: bool = False        # invariant failure aborts the contract
    program: str = ""
    compensation_program: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise SpecificationError("contract step needs a name")
        parse_condition(self.entry_condition or None)  # validate early
        if not self.program:
            object.__setattr__(self, "program", "txn_%s" % self.name)
        if not self.compensation_program:
            object.__setattr__(
                self, "compensation_program", "comp_%s" % self.name
            )


class ContractSpec:
    """A ConTract: typed context plus a script of steps."""

    def __init__(
        self,
        name: str,
        context: list[VariableDecl],
        steps: list[ContractStep],
    ):
        if not name:
            raise SpecificationError("contract needs a name")
        if not steps:
            raise SpecificationError("contract %s has no steps" % name)
        names = [step.name for step in steps]
        if len(set(names)) != len(names):
            raise SpecificationError(
                "contract %s has duplicate steps" % name
            )
        self.name = name
        self.context = list(context)
        self.steps = list(steps)
        context_members = {decl.name for decl in self.context}
        for step in steps:
            for path in parse_condition(step.entry_condition or None).variables():
                root = path.split(".", 1)[0]
                if root not in context_members:
                    raise SpecificationError(
                        "contract %s step %s: entry condition references "
                        "%r which is not a context member"
                        % (name, step.name, path)
                    )

    def __repr__(self) -> str:
        return "ContractSpec(%r, %d steps)" % (self.name, len(self.steps))


@dataclass
class ContractOutcome:
    committed: bool
    executed: list[str] = field(default_factory=list)
    skipped: list[str] = field(default_factory=list)
    compensated: list[str] = field(default_factory=list)
    failed_step: str = ""
    history: list[SubtransactionOutcome] = field(default_factory=list)


class NativeContractExecutor:
    """The ConTract model's own runtime (the baseline)."""

    def __init__(
        self,
        spec: ContractSpec,
        actions: dict[str, Subtransaction],
        compensations: dict[str, Subtransaction],
        *,
        max_compensation_attempts: int = 100,
    ):
        for step in spec.steps:
            if step.name not in actions:
                raise SpecificationError(
                    "no action bound for %r" % step.name
                )
            if step.name not in compensations:
                raise SpecificationError(
                    "no compensation bound for %r" % step.name
                )
        self.spec = spec
        self.actions = actions
        self.compensations = compensations
        self.max_compensation_attempts = max_compensation_attempts

    def run(self, context: dict[str, Any]) -> ContractOutcome:
        outcome = ContractOutcome(committed=True)
        env = dict(context)
        for step in self.spec.steps:
            condition = parse_condition(step.entry_condition or None)
            if not condition.evaluate(lambda p: env.get(p)):
                if step.critical:
                    outcome.failed_step = step.name
                    outcome.committed = False
                    break
                outcome.skipped.append(step.name)
                continue
            result = self.actions[step.name].execute()
            outcome.history.append(result)
            if result.committed:
                outcome.executed.append(step.name)
            else:
                outcome.failed_step = step.name
                outcome.committed = False
                break
        if not outcome.committed:
            for name in reversed(outcome.executed):
                self._compensate(name, outcome)
        return outcome

    def _compensate(self, name: str, outcome: ContractOutcome) -> None:
        compensation = self.compensations[name]
        for __ in range(self.max_compensation_attempts):
            result = compensation.execute()
            outcome.history.append(result)
            if result.committed:
                outcome.compensated.append(name)
                return
        raise SpecificationError(
            "compensation of %s never committed" % name
        )


def translate_contract(
    spec: ContractSpec, *, max_compensation_attempts: int = 100
) -> Translation:
    """Translate a ConTract into a workflow process.

    Shape per step i: ``Eval_i`` (NOP copying the context) with two
    outgoing connectors — the entry invariant to ``Step_i`` and its
    complement to ``Eval_{i+1}`` (the skip, or ``Done`` for the last
    step; a critical step's complement routes to the compensation
    block instead).  ``Step_i`` commits to ``Eval_{i+1}`` / ``Done``
    and aborts to the compensation block.
    """
    context_decls = list(spec.context)
    members = GUARDED.members(spec.steps, "contract step")
    states = [state_var(member.name) for member in members]
    flags = [compensated_var(member.name) for member in members]
    process = ProcessDefinition(
        "Contract_%s" % spec.name,
        description="ConTract-lite translation of %r" % spec.name,
        input_spec=context_decls,
        output_spec=longs(["Committed"] + states + flags),
    )
    # Reverse-chain guarded compensation (skipped/never-run steps have
    # State 0 and their guards pass through).
    comp_block = build_compensation_block(
        "Backward_%s" % spec.name,
        members,
        chain(members),
        GUARDED,
        commit_rc=SAGA_COMMIT_RC,
        max_attempts=max_compensation_attempts,
        description="backward recovery of contract %s" % spec.name,
    )

    def eval_name(index: int) -> str:
        return "Eval_%s" % spec.steps[index].name

    # Done marker: committed contracts end here.
    process.add_activity(
        Activity(
            "Done",
            program="contract_done",
            output_spec=longs(["Committed"]),
            start_condition=StartCondition.ANY,
            description="contract completed",
        )
    )

    failure_edges: list[tuple[str, str]] = []
    for index, (step, member) in enumerate(zip(spec.steps, members)):
        evaluator = eval_name(index)
        process.add_activity(
            Activity(
                evaluator,
                program=NOP_PROGRAM,
                input_spec=list(context_decls),
                output_spec=list(context_decls),
                start_condition=StartCondition.ANY,
                description="entry invariant of %s" % step.name,
            )
        )
        if context_decls:
            process.map_data(
                PROCESS_INPUT,
                evaluator,
                [(d.name, d.name) for d in context_decls],
            )
        process.add_activity(
            Activity(
                step.name,
                program=member.program,
                output_spec=longs(["State"]),
                description=member.description,
            )
        )
        process.map_data(
            step.name, PROCESS_OUTPUT, [("State", state_var(step.name))]
        )
        entry = step.entry_condition.strip() or "TRUE"
        complement = "NOT (%s)" % entry if entry != "TRUE" else "FALSE"
        next_target = (
            eval_name(index + 1) if index + 1 < len(spec.steps) else "Done"
        )
        process.connect(evaluator, step.name, entry)
        if step.critical:
            # Invariant violation fails the contract.
            failure_edges.append((evaluator, complement))
        else:
            if complement != "FALSE":
                process.connect(evaluator, next_target, complement)
        process.connect(step.name, next_target, "RC = %d" % SAGA_COMMIT_RC)
        failure_edges.append((step.name, "RC <> %d" % SAGA_COMMIT_RC))

    process.add_activity(
        Activity(
            "Backward",
            kind=ActivityKind.BLOCK,
            block=comp_block,
            input_spec=longs(states),
            output_spec=longs(["Done"] + flags),
            start_condition=StartCondition.ANY,
            description="backward recovery (guarded compensation)",
        )
    )
    for source, condition in failure_edges:
        process.connect(source, "Backward", condition)
    for step in spec.steps:
        process.map_data(
            step.name, "Backward", [("State", state_var(step.name))]
        )
    process.map_data("Done", PROCESS_OUTPUT, [("Committed", "Committed")])
    process.map_data("Backward", PROCESS_OUTPUT, [(f, f) for f in flags])
    process.validate()
    return Translation(
        spec,
        process,
        SAGA_COMMIT_RC,
        SAGA_ABORT_RC,
        ContractOutcome,
        members,
        GUARDED,
        done_program="contract_done",
        # A critical step whose invariant fails is the failed step, not
        # a skipped one.
        entry_checks={
            step.name: eval_name(index)
            for index, step in enumerate(spec.steps)
            if not step.critical
        },
    )
