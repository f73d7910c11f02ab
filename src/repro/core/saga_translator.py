"""Saga → workflow process: the Figure 2 construction (§4.1).

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
``0`` iff the whole saga committed (Figure 2's ``RC_FB``).

One engine-semantics note: in our navigator a transition condition
reads the *source* activity's output container, so the NOP trigger
activity first copies the ``State_i`` flags from the compensation
block's input container into its own output container, and the trigger
connectors read them there.  The trigger condition for step *i* is
``State_i = 1 AND State_{i+1} = 0`` (only the most recently executed
step starts compensation); the reverse chain then advances through a
``Next = 1`` flag each compensating activity passes through, so
compensation proceeds strictly in reverse execution order while dead-
path elimination silently skips steps that never executed — exactly
the behaviour narrated in the paper's appendix.
"""

from __future__ import annotations

from repro.errors import TranslationError
from repro.wfms.datatypes import DataType, VariableDecl
from repro.wfms.model import (
    PROCESS_OUTPUT,
    Activity,
    ActivityKind,
    ProcessDefinition,
)
from repro.core.compblock import (
    NOP_PROGRAM,
    Translation,
    build_compensation_block,
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
    """Translate ``spec`` into a workflow process (Figure 2).

    With ``compensate_completed`` the compensation block runs even when
    the saga committed ("users may require to compensate an already
    completed saga.  In these cases all activities must be
    compensated.").
    """
    forward = _forward_block(spec)
    compensation = _compensation_block(spec, max_compensation_attempts)
    state_decls = [
        VariableDecl(state_var(step.name), DataType.LONG)
        for step in spec.steps
    ]
    process = ProcessDefinition(
        "Saga_%s" % spec.name,
        description="Figure 2 translation of saga %r" % spec.name,
        output_spec=list(state_decls)
        + [VariableDecl("Compensated", DataType.LONG)],
    )
    process.add_activity(
        Activity(
            "Forward",
            kind=ActivityKind.BLOCK,
            block=forward,
            output_spec=list(state_decls),
            description="forward block: the saga's subtransactions",
        )
    )
    process.add_activity(
        Activity(
            "Compensation",
            kind=ActivityKind.BLOCK,
            block=compensation,
            input_spec=list(state_decls),
            output_spec=[VariableDecl("Done", DataType.LONG)],
            description="compensation block (reverse order)",
        )
    )
    # RC_FB gates the compensation block (appendix: "In the case that
    # it is 0, the compensation block is not executed").
    condition = "TRUE" if compensate_completed else "RC <> 0"
    process.connect("Forward", "Compensation", condition)
    process.map_data(
        "Forward",
        "Compensation",
        [(state_var(s.name), state_var(s.name)) for s in spec.steps],
    )
    process.map_data(
        "Forward",
        PROCESS_OUTPUT,
        [(state_var(s.name), state_var(s.name)) for s in spec.steps]
        + [("_RC", "_RC")],
    )
    process.map_data(
        "Compensation", PROCESS_OUTPUT, [("Done", "Compensated")]
    )
    process.validate()
    required = {NOP_PROGRAM: "null activity (compensation trigger)"}
    for step in spec.steps:
        required[step.program] = "subtransaction %s" % step.name
        required[step.compensation_program] = "compensation of %s" % step.name
    return Translation(
        spec,
        process,
        required,
        SAGA_COMMIT_RC,
        SAGA_ABORT_RC,
        SagaOutcome,
        programs={step.name: step.program for step in spec.steps},
        compensation_programs={
            step.name: step.compensation_program for step in spec.steps
        },
        forward_block=forward,
        compensation_block=compensation,
    )


def _forward_block(spec: SagaSpec) -> ProcessDefinition:
    block = ProcessDefinition(
        "Fwd_%s" % spec.name,
        description="forward block of saga %s" % spec.name,
        output_spec=[
            VariableDecl(state_var(step.name), DataType.LONG)
            for step in spec.steps
        ],
    )
    for step in spec.steps:
        block.add_activity(
            Activity(
                step.name,
                program=step.program,
                output_spec=[VariableDecl("State", DataType.LONG)],
                description="subtransaction %s" % step.name,
            )
        )
        # Register execution status in the block's output container.
        block.map_data(
            step.name, PROCESS_OUTPUT, [("State", state_var(step.name)), ("_RC", "_RC")]
        )
    for source, target in spec.order:
        # "the previous activity must have terminated successfully".
        block.connect(source, target, "RC = %d" % SAGA_COMMIT_RC)
    return block


def _compensation_block(
    spec: SagaSpec,
    max_compensation_attempts: int,
) -> ProcessDefinition:
    if not spec.is_linear:
        raise TranslationError(
            "the Figure 2 compensation construction is defined for "
            "linear sagas; use translate_parallel_saga for DAG sagas"
        )
    return build_compensation_block(
        "Comp_%s" % spec.name,
        [(step.name, step.compensation_program) for step in spec.steps],
        commit_rc=SAGA_COMMIT_RC,
        max_attempts=max_compensation_attempts,
        description="compensation block of saga %s" % spec.name,
    )

