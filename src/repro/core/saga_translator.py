"""Saga → workflow process: the Figure 2 construction (§4.1), and the
one saga envelope both saga translations share.

"All the subtransactions of the saga are grouped into a block.  The
flow of control within the block reflects that of the saga ... The
control connectors have a condition ... that the previous activity
must have terminated successfully.  If a transaction aborts ... by
dead path elimination, no other activity in the block will be
executed ... Each activity must also register its status ... mapping
the return code of the output data container of each activity to the
appropriate variable in the output data container of the block.

The second phase is implemented in another block containing the
compensating activities in reverse order.  There is also a null
activity whose purpose is to trigger the execution of the compensation
at the correct point. ... The condition on those control connectors is
whether the corresponding forward activity was executed or not."

Return-code convention (appendix): RC ``0`` means the subtransaction
committed.  Each forward activity writes ``State = 1`` on commit,
mapped to ``State_<step>`` in the block's output container; the block's
own ``_RC`` ends up as the RC of the *last executed* activity, so it is
``0`` iff a linear saga committed (Figure 2's ``RC_FB``).

:func:`lower_saga` is the envelope: the ``Forward`` block, then a
``Compensation`` block from :func:`repro.core.compblock.build_compensation_block`.
:func:`translate_saga` lowers with the dead-path construction (the
paper's, linear sagas only); :func:`repro.core.parallel_saga.translate_parallel_saga`
with the guarded one.  The two differ only in the block, the gate on
it, the ``Compensated_<step>`` outputs and some names.
"""

from __future__ import annotations

from repro.errors import TranslationError
from repro.wfms.model import (
    PROCESS_OUTPUT,
    Activity,
    ActivityKind,
    ProcessDefinition,
)
from repro.core.compblock import (
    DEAD_PATH,
    GUARDED,
    Construction,
    Member,
    Translation,
    build_compensation_block,
    compensated_var,
    longs,
    state_var,
)
from repro.core.sagas import SagaOutcome, SagaSpec

#: RC conventions of the saga section (appendix): 0 = committed.
SAGA_COMMIT_RC = 0
SAGA_ABORT_RC = 1


def translate_saga(
    spec: SagaSpec,
    *,
    compensate_completed: bool = False,
    max_compensation_attempts: int = 100,
) -> Translation:
    """Translate the linear saga ``spec`` into a workflow process
    (Figure 2, the dead-path construction).

    With ``compensate_completed`` the compensation block runs even when
    the saga committed ("users may require to compensate an already
    completed saga.  In these cases all activities must be
    compensated.").
    """
    return lower_saga(
        spec, DEAD_PATH, compensate_completed, max_compensation_attempts
    )


#: Per construction: process name and description, the Forward
#: activity's description, the block's name and description, and the
#: Compensation activity's description.
_NAMES = {
    DEAD_PATH: (
        "Saga_%s",
        "Figure 2 translation of saga %r",
        "forward block: the saga's subtransactions",
        "Comp_%s",
        "compensation block of saga %s",
        "compensation block (reverse order)",
    ),
    GUARDED: (
        "PSaga_%s",
        "guarded (parallel-saga) translation of %r",
        "forward block (DAG of subtransactions)",
        "GComp_%s",
        "guarded compensation block of %s",
        "guarded compensation block (reversed DAG)",
    ),
}


def lower_saga(
    spec: SagaSpec,
    construction: Construction,
    compensate_completed: bool,
    max_compensation_attempts: int,
) -> Translation:
    """The one saga envelope: a ``Forward`` block holding the steps
    along the saga's order, then a ``Compensation`` block of the given
    construction, gated on the forward outcome.

    The dead-path construction needs a linear saga; the guarded one
    takes any DAG, and also reports ``Compensated_<step>``.
    """
    guarded = construction is GUARDED
    if not guarded and not spec.is_linear:
        raise TranslationError(
            "the Figure 2 compensation construction is defined for "
            "linear sagas; use translate_parallel_saga for DAG sagas"
        )
    process_name, about, forward_about, block_name, block_about, comp_about = (
        _NAMES[construction]
    )
    members = construction.members(spec.steps, "subtransaction")
    forward = _forward_block(spec, members)
    compensation = build_compensation_block(
        block_name % spec.name,
        members,
        spec.order,
        construction,
        commit_rc=SAGA_COMMIT_RC,
        max_attempts=max_compensation_attempts,
        description=block_about % spec.name,
    )
    states = [state_var(member.name) for member in members]
    flags = [compensated_var(m.name) for m in members] if guarded else []
    process = ProcessDefinition(
        process_name % spec.name,
        description=about % spec.name,
        output_spec=longs(states + ["Compensated"] + flags),
    )
    process.add_activity(
        Activity(
            "Forward",
            kind=ActivityKind.BLOCK,
            block=forward,
            output_spec=longs(states),
            description=forward_about,
        )
    )
    process.add_activity(
        Activity(
            "Compensation",
            kind=ActivityKind.BLOCK,
            block=compensation,
            input_spec=longs(states),
            output_spec=longs(["Done"] + flags),
            description=comp_about,
        )
    )
    if compensate_completed:
        gate = "TRUE"
    elif guarded:
        # The block RC is the last writer's, which only means "the saga
        # aborted" for a chain: in a DAG a parallel sibling can finish
        # (successfully) after the aborted step.  Compensate iff any
        # step did not commit.
        gate = " OR ".join("%s = 0" % s for s in states)
    else:
        # RC_FB gates the compensation block (appendix: "In the case
        # that it is 0, the compensation block is not executed").
        gate = "RC <> 0"
    process.connect("Forward", "Compensation", gate)
    mappings = [(s, s) for s in states]
    process.map_data("Forward", "Compensation", mappings)
    process.map_data("Forward", PROCESS_OUTPUT, mappings + [("_RC", "_RC")])
    process.map_data(
        "Compensation",
        PROCESS_OUTPUT,
        [("Done", "Compensated")] + [(f, f) for f in flags],
    )
    process.validate()
    return Translation(
        spec,
        process,
        SAGA_COMMIT_RC,
        SAGA_ABORT_RC,
        SagaOutcome,
        members,
        construction,
        forward_block=forward,
        compensation_block=compensation,
    )


def _forward_block(spec: SagaSpec, members: list[Member]) -> ProcessDefinition:
    block = ProcessDefinition(
        "Fwd_%s" % spec.name,
        description="forward block of saga %s" % spec.name,
        output_spec=longs([state_var(member.name) for member in members]),
    )
    for member in members:
        block.add_activity(
            Activity(
                member.name,
                program=member.program,
                output_spec=longs(["State"]),
                description=member.description,
            )
        )
        # Register execution status in the block's output container.
        block.map_data(
            member.name,
            PROCESS_OUTPUT,
            [("State", state_var(member.name)), ("_RC", "_RC")],
        )
    for source, target in spec.order:
        # "the previous activity must have terminated successfully".
        block.connect(source, target, "RC = %d" % SAGA_COMMIT_RC)
    return block
