"""Bindings: connect translated processes to real subtransactions.

The translators produce pure process definitions that reference
*program names*.  This module is the one binding layer of the four
compensation-based models — linear sagas, parallel sagas, flexible
transactions and contracts.  :func:`register_programs` registers the
actual programs, built from
:class:`~repro.tx.subtransaction.Subtransaction` objects with the right
RC conventions, on an engine; :func:`workflow_outcome` extracts the
model-level outcome (:class:`SagaOutcome`, :class:`FlexibleOutcome` or
:class:`ContractOutcome`) back out of a workflow execution, so
experiments can compare the workflow implementation against the native
executors on equal terms.  What differs between the models is data on
the :class:`~repro.core.compblock.Translation`; nothing here looks at
the specification's type.
"""

from __future__ import annotations

import dataclasses
from typing import Any

from repro.errors import SpecificationError
from repro.tx.subtransaction import Subtransaction
from repro.core.compblock import (
    NOP_PROGRAM,
    Translation,
    comp_activity_name,
    compensated_var,
    state_var,
)


def nop_program(ctx) -> int:
    """The null activity: copies matching input members to output."""
    for name in list(ctx.output.members()):
        if name != "_RC" and ctx.input.has(name):
            ctx.output.set(name, ctx.input.get(name))
    return 0


def done_program(ctx) -> int:
    """Marks the process committed."""
    ctx.output.set("Committed", 1)
    return 0


def compensation_program(
    compensation: Subtransaction, member: str, commit_rc: int, abort_rc: int
):
    """The program of the compensating activity ``Comp_<member>``.

    It compensates only when ``State_<member> = 1``: a guarded block
    starts every compensating activity, a dead-path block only those of
    members that committed.  It reports ``DidRun = 1`` when the
    compensation committed (guarded blocks) and forwards ``Prev`` as
    ``Next`` (the dead-path reverse chain).
    """
    guard = state_var(member)

    def program(ctx) -> int:
        if ctx.input.get(guard) != 1:
            return commit_rc
        committed = compensation.execute().committed
        if ctx.output.has("Next"):
            ctx.output.set("Next", ctx.input.get("Prev"))
        if committed and ctx.output.has("DidRun"):
            ctx.output.set("DidRun", 1)
        return commit_rc if committed else abort_rc

    program.__name__ = "compensation_%s" % member
    return program


def register_programs(
    engine,
    translation: Translation,
    actions: dict[str, Subtransaction],
    compensations: dict[str, Subtransaction],
) -> None:
    """Register every program ``translation`` references.

    ``engine`` is used only through ``register_program``."""
    commit_rc, abort_rc = translation.commit_rc, translation.abort_rc
    described = translation.required_programs
    engine.register_program(
        NOP_PROGRAM, nop_program, described[NOP_PROGRAM], replace=True
    )
    for member, program in translation.programs.items():
        if member not in actions:
            raise SpecificationError("no action bound for %r" % member)
        engine.register_program(
            program,
            actions[member].as_program(commit_rc=commit_rc, abort_rc=abort_rc),
            described[program],
            replace=True,
        )
    for member, program in translation.compensation_programs.items():
        if member not in compensations:
            raise SpecificationError("no compensation bound for %r" % member)
        engine.register_program(
            program,
            compensation_program(
                compensations[member], member, commit_rc, abort_rc
            ),
            described[program],
            replace=True,
        )
    if translation.done_program:
        engine.register_program(
            translation.done_program,
            done_program,
            described[translation.done_program],
            replace=True,
        )


def workflow_outcome(engine, translation: Translation, instance_id: str):
    """Reconstruct the model-level outcome of a workflow run, as the
    translation's ``outcome_type``.

    Reads only ``engine.output`` and ``engine.execution_order``, which
    also answer for archived instances.
    """
    output = engine.output(instance_id)
    order = engine.execution_order(instance_id)
    members = translation.programs
    executed = [m for m in members if output.get(state_var(m)) == 1]
    # Comp_<m> is a compensation only for a member m that has one; any
    # other activity may be a member's, e.g. a member named "Comp_x".
    compensating = {
        comp_activity_name(m.name): m.name
        for m in translation.members
        if m.compensation
    }
    # A guarded block runs every compensating activity and records in
    # Compensated_<m> whether it compensated; a dead-path block runs
    # only the compensating activities that compensate.
    compensated = []
    last_forward: dict[str, int] = {}
    last_compensation: dict[str, int] = {}
    for index, activity in enumerate(order):
        member = compensating.get(activity)
        if member is not None:
            if output.get(compensated_var(member), 1) == 1:
                compensated.append(member)
                last_compensation[member] = index
        else:
            # A member on two alternatives runs as "<member>__<node>".
            member = translation.member_activities.get(activity, activity)
            last_forward[member] = index
    # A member ends committed when it committed (its State flag is the
    # last writer's) after its last compensation: a member shared by
    # two alternatives is compensated on one and runs again on the next.
    committed_members = [
        m
        for m in sorted(last_forward, key=last_forward.get)
        if m in members
        and output.get(state_var(m)) == 1
        and last_forward[m] > last_compensation.get(m, -1)
    ]
    # Flexible transactions and contracts mark their commit in
    # ``Committed``; a saga commits when every step did.
    committed = output.get("Committed", len(executed) == len(members)) == 1
    facts: dict[str, Any] = {
        "committed": committed,
        "executed": executed,
        "compensated": compensated,
        "committed_members": committed_members,
        "committed_path": list(committed_members) if committed else [],
        "skipped": [
            m
            for m, check in translation.entry_checks.items()
            if check in order and m not in order
        ],
    }
    fields = {f.name for f in dataclasses.fields(translation.outcome_type)}
    return translation.outcome_type(
        **{name: value for name, value in facts.items() if name in fields}
    )


# The names the ledger (bench/) imports.
register_saga_programs = register_programs
register_flexible_programs = register_programs
workflow_saga_outcome = workflow_outcome
workflow_flexible_outcome = workflow_outcome
