"""The translation kit: one member list and one compensation-block
builder for the four compensation-based models.

Every model — linear sagas, parallel sagas, flexible transactions and
contracts — lowers to an ordered list of :class:`Member` s: a name, a
kind, a forward program and the program of its compensating activity
``Comp_<name>``.  A :class:`Translation` keeps that list, and the
program tables the binding layer (:mod:`repro.core.bindings`) and the
FDL export read are views of it.

:func:`build_compensation_block` builds Figure 2's second phase for
any of them: a block holding one compensating activity per member,
entered through a null (NOP) activity, run along the *reversed*
forward edges.  Its input container carries ``State_<m>`` (1 = member
*m* committed, 0 = never ran or rolled itself back); the NOP copies
the flags to its output so its outgoing conditions can read them.  The
two :class:`Construction` s differ in how they skip members that never
committed:

* :data:`DEAD_PATH` (Figure 2; linear sagas and each node of a
  flexible transaction's path tree) needs the members to form a chain.
  NOP → Comp_m fires only for the most recently executed member
  (``State_m = 1 AND State_next = 0``); the reverse chain Comp_m →
  Comp_prev advances on a ``Next`` flag: each compensating activity
  receives its predecessor's ``State`` as ``Prev`` and forwards it as
  ``Next``.  The block wires ``Prev`` itself, so a member shared by two
  alternatives (two blocks, two predecessors) continues each block's
  chain.  Dead-path elimination skips members that never executed.
* :data:`GUARDED` (parallel sagas and contracts) takes any DAG.  Every
  compensating activity runs, wired unconditionally along the reversed
  edges from the NOP to the forward sinks; its program compensates only
  when the member's ``State`` is 1 and reports ``DidRun``, which reaches
  the block's output as ``Compensated_<m>``.

Either way each compensating activity is retried until its exit
condition (``RC = commit``) holds — "compensations are in general
considered retriable".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.errors import SpecificationError
from repro.wfms.datatypes import DataType, VariableDecl
from repro.wfms.model import (
    PROCESS_INPUT,
    PROCESS_OUTPUT,
    Activity,
    ProcessDefinition,
    StartCondition,
)

#: Program name of the null (no-operation) trigger activity.
NOP_PROGRAM = "nop"


def state_var(name: str) -> str:
    """Container member recording whether member ``name`` committed."""
    return "State_%s" % name


def compensated_var(name: str) -> str:
    """Output member of a guarded block (and of its process) recording
    whether member ``name``'s compensation actually ran."""
    return "Compensated_%s" % name


def comp_activity_name(member: str) -> str:
    return "Comp_%s" % member


def longs(names: list[str]) -> list[VariableDecl]:
    """LONG declarations of ``names``: every flag the kit wires is one."""
    return [VariableDecl(name, DataType.LONG) for name in names]


@dataclass(frozen=True)
class Member:
    """One member of a compensation-based model.

    ``kind`` is what the member is ("subtransaction", "contract step",
    "pivot subtransaction", ...); its activity and program are described
    as ``"<kind> <name>"``.  ``compensation`` is the program of its
    compensating activity, ``""`` when it has none.
    """

    name: str
    kind: str
    program: str
    compensation: str = ""

    @property
    def description(self) -> str:
        return "%s %s" % (self.kind, self.name)


@dataclass(frozen=True)
class Construction:
    """How a compensation block skips members that never committed, and
    how its programs are named and described."""

    #: PROGRAM description of the NOP.
    nop_program: str
    #: Description of the block's NOP activity.
    nop_activity: str
    #: Prefix of a member's compensation program name.
    program_prefix: str
    #: Description of ``Comp_<m>`` and of its program, given ``m``.
    compensation: str

    def members(self, steps, kind: str) -> list[Member]:
        """Members of a saga's or contract's steps, each compensated."""
        return [
            Member(
                step.name,
                kind,
                step.program,
                self.program_prefix + step.compensation_program,
            )
            for step in steps
        ]


DEAD_PATH = Construction(
    "null activity (compensation trigger)",
    "null activity triggering compensation",
    "",
    "compensation of %s",
)
GUARDED = Construction(
    "null activity", "", "g", "guarded compensation of %s"
)


def chain(members: list[Member]) -> list[tuple[str, str]]:
    """The forward edges of members executed one after another."""
    return [(a.name, b.name) for a, b in zip(members, members[1:])]


@dataclass
class Translation:
    """A translator's output: the process, plus everything in which the
    compensation-based models differ for the binding layer
    (:mod:`repro.core.bindings`), as data."""

    spec: Any
    process: ProcessDefinition
    #: The model's return codes for "committed" and "aborted".
    commit_rc: int
    abort_rc: int
    #: The model's outcome dataclass, which the outcome reader fills in.
    outcome_type: type
    #: The model's members, in member order.
    members: list[Member]
    #: How the model's compensation blocks skip members that never
    #: committed; also names and describes the programs.
    construction: Construction
    #: Program of the activity that marks a contract committed.
    done_program: str = ""
    #: member -> activity deciding whether the member runs; the member
    #: was *skipped* when that activity ran and the member did not.
    entry_checks: dict[str, str] = field(default_factory=dict)
    #: activity -> member, for a member's activity not named after it
    #: (a flexible member on two alternatives runs as
    #: ``<member>__<node>`` on the second).
    member_activities: dict[str, str] = field(default_factory=dict)
    forward_block: ProcessDefinition | None = None
    compensation_block: ProcessDefinition | None = None
    #: Human-readable notes (e.g. pruned unreachable alternatives).
    notes: list[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        names = {member.name for member in self.members}
        for member in self.members:
            comp_name = comp_activity_name(member.name)
            if member.compensation and comp_name in names:
                raise SpecificationError(
                    "member %r is named like the compensating activity "
                    "of member %r" % (comp_name, member.name)
                )

    @property
    def process_name(self) -> str:
        return self.process.name

    @property
    def programs(self) -> dict[str, str]:
        """member -> forward program."""
        return {member.name: member.program for member in self.members}

    @property
    def compensation_programs(self) -> dict[str, str]:
        """member -> program of ``Comp_<member>``, for members that have
        a compensation."""
        return {
            member.name: member.compensation
            for member in self.members
            if member.compensation
        }

    @property
    def required_programs(self) -> dict[str, str]:
        """Program names the engine must have registered before
        execution, mapped to a description (the FDL PROGRAM section)."""
        required = {NOP_PROGRAM: self.construction.nop_program}
        if self.done_program:
            required[self.done_program] = "marks the contract committed"
        for member in self.members:
            required[member.program] = member.description
            if member.compensation:
                required[member.compensation] = (
                    self.construction.compensation % member.name
                )
        return required


def build_compensation_block(
    block_name: str,
    members: list[Member],
    edges: list[tuple[str, str]],
    construction: Construction,
    *,
    commit_rc: int,
    max_attempts: int,
    description: str = "compensation block",
) -> ProcessDefinition:
    """Build the compensation block of ``members`` (in forward order),
    compensating along the reversed forward ``edges``.

    A :data:`DEAD_PATH` block needs ``edges`` to be the members'
    :func:`chain`.  ``commit_rc`` is the return code meaning
    "compensation committed" under the enclosing model's convention.
    """
    guarded = construction is GUARDED
    states = [state_var(member.name) for member in members]
    flags = [compensated_var(m.name) for m in members] if guarded else []
    state_decls = longs(states)
    block = ProcessDefinition(
        block_name,
        description=description,
        input_spec=list(state_decls),
        output_spec=longs(["Done"] + flags),
    )
    block.add_activity(
        Activity(
            "NOP",
            program=NOP_PROGRAM,
            input_spec=list(state_decls),
            output_spec=list(state_decls),
            description=construction.nop_activity,
        )
    )
    if states:
        block.map_data(PROCESS_INPUT, "NOP", [(s, s) for s in states])
    after = dict(edges)
    before = {target: source for source, target in edges}
    for member in members:
        name = member.name
        comp_name = comp_activity_name(name)
        inputs = [(s, s) for s in states]
        if guarded:
            outputs = [("DidRun", "Done"), ("DidRun", compensated_var(name))]
        else:
            # The member compensated next is its predecessor; the first
            # member forwards its own flag, which ends the chain.
            inputs.append((state_var(before.get(name, name)), "Prev"))
            outputs = [("Next", "Done")]
        block.add_activity(
            Activity(
                comp_name,
                program=member.compensation,
                input_spec=state_decls + ([] if guarded else longs(["Prev"])),
                output_spec=longs(["DidRun" if guarded else "Next"]),
                start_condition=(
                    StartCondition.ALL if guarded else StartCondition.ANY
                ),
                exit_condition="RC = %d" % commit_rc,
                max_iterations=max_attempts,
                description=construction.compensation % name,
            )
        )
        block.map_data(PROCESS_INPUT, comp_name, inputs)
        if guarded:
            if name not in after:
                block.connect("NOP", comp_name)  # a forward sink
        else:
            trigger = "%s = 1" % state_var(name)
            if name in after:
                trigger += " AND %s = 0" % state_var(after[name])
            block.connect("NOP", comp_name, trigger)
            if name in before:
                block.connect(
                    comp_name, comp_activity_name(before[name]), "Next = 1"
                )
        block.map_data(comp_name, PROCESS_OUTPUT, outputs + [("_RC", "_RC")])
    if guarded:
        for source, target in edges:
            block.connect(comp_activity_name(target), comp_activity_name(source))
    return block
