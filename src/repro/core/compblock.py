"""Shared compensation-block construction.

Both translations need Figure 2's second phase: a block holding the
compensating activities in reverse order, entered through a null (NOP)
activity whose outgoing connectors test which forward activities
executed.  The saga translation compensates a whole saga; the flexible
translation builds one such block per alternative branch (covering
§4.2 rule 5's grouping of consecutive compensatable subtransactions
and rule 6's compensating block).

Wiring recap (see :mod:`repro.core.saga_translator` for the rationale):

* the block's input container carries ``State_<m>`` (1 = member *m*
  committed, 0 = never ran or rolled itself back);
* the NOP copies these flags to its output so its outgoing transition
  conditions can read them;
* NOP → Comp_m fires only for the most recently executed member
  (``State_m = 1 AND State_next = 0``);
* the reverse chain Comp_m → Comp_prev advances on a ``Next`` flag:
  each compensating activity receives its predecessor's ``State`` as
  ``Prev`` and forwards it as ``Next``, so compensation runs strictly in
  reverse execution order.  The block wires ``Prev`` itself, so a member
  shared by two alternatives (two blocks, two predecessors) continues
  each block's chain;
* dead-path elimination silently skips members that never executed;
* each compensating activity is retried until its exit condition
  (``RC = commit``) holds — "compensations are in general considered
  retriable".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

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


@dataclass
class Translation:
    """A translator's output: the process, plus everything in which the
    compensation-based models differ for the binding layer
    (:mod:`repro.core.bindings`), as data."""

    spec: Any
    process: ProcessDefinition
    #: Program names the engine must have registered before execution,
    #: mapped to a human description (forms the FDL PROGRAM section).
    required_programs: dict[str, str]
    #: The model's return codes for "committed" and "aborted".
    commit_rc: int
    abort_rc: int
    #: The model's outcome dataclass, which the outcome reader fills in.
    outcome_type: type
    #: member -> forward program, in the model's member order.
    programs: dict[str, str] = field(default_factory=dict)
    #: member -> program of its compensating activity ``Comp_<member>``
    #: (only members that have a compensation).
    compensation_programs: dict[str, str] = field(default_factory=dict)
    #: Program of the activity that marks the process committed.
    done_program: str = ""
    #: member -> activity deciding whether the member runs; the member
    #: was *skipped* when that activity ran and the member did not.
    entry_checks: dict[str, str] = field(default_factory=dict)
    forward_block: ProcessDefinition | None = None
    compensation_block: ProcessDefinition | None = None
    #: Human-readable notes (e.g. pruned unreachable alternatives).
    notes: list[str] = field(default_factory=list)

    @property
    def process_name(self) -> str:
        return self.process.name


def build_compensation_block(
    block_name: str,
    items: list[tuple[str, str]],
    *,
    commit_rc: int,
    max_attempts: int,
    description: str = "",
) -> ProcessDefinition:
    """Build a compensation block.

    ``items`` lists ``(member_name, compensation_program)`` in *forward
    execution order*; compensation runs in the reverse order.
    ``commit_rc`` is the return code meaning "compensation committed"
    under the enclosing model's convention.
    """
    states = [state_var(member) for member, __ in items]
    block = ProcessDefinition(
        block_name,
        description=description or "compensation block",
        input_spec=[VariableDecl(s, DataType.LONG) for s in states],
        output_spec=[VariableDecl("Done", DataType.LONG)],
    )
    state_decls = [VariableDecl(s, DataType.LONG) for s in states]
    block.add_activity(
        Activity(
            "NOP",
            program=NOP_PROGRAM,
            input_spec=list(state_decls),
            output_spec=list(state_decls),
            description="null activity triggering compensation",
        )
    )
    if states:
        block.map_data(PROCESS_INPUT, "NOP", [(s, s) for s in states])
    for index, (member, comp_program) in enumerate(items):
        comp_name = comp_activity_name(member)
        # The member compensated next is the one before this one; the
        # first item gets its own flag, which ends the chain.
        previous = states[index - 1] if index else states[index]
        block.add_activity(
            Activity(
                comp_name,
                program=comp_program,
                input_spec=state_decls + [VariableDecl("Prev", DataType.LONG)],
                output_spec=[VariableDecl("Next", DataType.LONG)],
                start_condition=StartCondition.ANY,
                exit_condition="RC = %d" % commit_rc,
                max_iterations=max_attempts,
                description="compensation of %s" % member,
            )
        )
        block.map_data(
            PROCESS_INPUT,
            comp_name,
            [(s, s) for s in states] + [(previous, "Prev")],
        )
        if index == len(items) - 1:
            trigger = "%s = 1" % states[index]
        else:
            trigger = "%s = 1 AND %s = 0" % (states[index], states[index + 1])
        block.connect("NOP", comp_name, trigger)
        if index > 0:
            block.connect(
                comp_name, comp_activity_name(items[index - 1][0]), "Next = 1"
            )
        block.map_data(
            comp_name, PROCESS_OUTPUT, [("Next", "Done"), ("_RC", "_RC")]
        )
    return block

