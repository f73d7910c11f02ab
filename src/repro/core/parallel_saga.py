"""Parallel / generalised sagas as workflow processes (§4.1's "the
same ideas apply to the more general case" [GMGK+91b]).

A parallel saga's steps form a DAG; the forward block mirrors it
directly (Figure 2's construction already handles any order).  The
compensation side cannot reuse Figure 2's dead-path chain, which
assumes the executed steps form a *prefix* of a single chain.  For a
DAG, the committed set after an abort is an arbitrary downward-closed
set, so this module uses the **guarded** construction:

* the compensation block contains one compensating activity per step,
  wired with the *reversed* DAG edges, all unconditional;
* every compensating activity always executes, but its program is
  *guarded*: it first reads the forward step's ``State`` flag from its
  input container and returns success immediately (``DidRun = 0``)
  when the step never committed;
* therefore compensations run in reverse topological order of the
  forward DAG and exactly the committed steps are compensated;
* each activity's ``DidRun`` reaches the block's output container as
  ``Compensated_<step>``, so the outcome reader can tell which guarded
  compensations actually ran from the process output alone.

The guarded construction also works for linear sagas, which makes it
the natural **ablation** against Figure 2: dead-path elimination skips
never-executed compensations inside the navigator (j activities run at
abort position j), while guarding runs all n compensating activities
and skips inside the program.  ``benchmarks/bench_ablation_comp.py``
compares them; both are behaviourally identical.
"""

from __future__ import annotations

from repro.wfms.datatypes import DataType, VariableDecl
from repro.wfms.model import (
    PROCESS_INPUT,
    PROCESS_OUTPUT,
    Activity,
    ActivityKind,
    ProcessDefinition,
)
from repro.core.compblock import (
    NOP_PROGRAM,
    Translation,
    compensated_var,
    state_var,
)
from repro.core.sagas import SagaOutcome, SagaSpec
from repro.core.saga_translator import (
    SAGA_ABORT_RC,
    SAGA_COMMIT_RC,
    _forward_block,
)


def translate_parallel_saga(
    spec: SagaSpec, *, max_compensation_attempts: int = 100
) -> Translation:
    """Translate a (possibly DAG-shaped) saga using the guarded
    compensation construction; linear sagas are accepted too."""
    forward = _forward_block(spec)
    compensation = guarded_compensation_block(
        "GComp_%s" % spec.name,
        "guarded compensation block of %s" % spec.name,
        spec.steps,
        spec.order,
        max_compensation_attempts,
    )
    state_decls = [
        VariableDecl(state_var(step.name), DataType.LONG)
        for step in spec.steps
    ]
    flags = [compensated_var(step.name) for step in spec.steps]
    flag_decls = [VariableDecl(f, DataType.LONG) for f in flags]
    process = ProcessDefinition(
        "PSaga_%s" % spec.name,
        description="guarded (parallel-saga) translation of %r" % spec.name,
        output_spec=list(state_decls)
        + [VariableDecl("Compensated", DataType.LONG)]
        + flag_decls,
    )
    process.add_activity(
        Activity(
            "Forward",
            kind=ActivityKind.BLOCK,
            block=forward,
            output_spec=list(state_decls),
            description="forward block (DAG of subtransactions)",
        )
    )
    process.add_activity(
        Activity(
            "Compensation",
            kind=ActivityKind.BLOCK,
            block=compensation,
            input_spec=list(state_decls),
            output_spec=[VariableDecl("Done", DataType.LONG)] + flag_decls,
            description="guarded compensation block (reversed DAG)",
        )
    )
    # Figure 2 gates compensation on the block RC, whose last-writer
    # semantics only hold for a chain: in a DAG a parallel sibling can
    # terminate (successfully) *after* the aborted step.  Gate on the
    # State flags instead: compensate iff any step did not commit.
    failed = " OR ".join(
        "%s = 0" % state_var(step.name) for step in spec.steps
    )
    process.connect("Forward", "Compensation", failed)
    mappings = [(state_var(s.name), state_var(s.name)) for s in spec.steps]
    process.map_data("Forward", "Compensation", mappings)
    process.map_data(
        "Forward", PROCESS_OUTPUT, mappings + [("_RC", "_RC")]
    )
    process.map_data(
        "Compensation",
        PROCESS_OUTPUT,
        [("Done", "Compensated")] + [(f, f) for f in flags],
    )
    process.validate()
    required = {NOP_PROGRAM: "null activity"}
    for step in spec.steps:
        required[step.program] = "subtransaction %s" % step.name
        required["g" + step.compensation_program] = (
            "guarded compensation of %s" % step.name
        )
    return Translation(
        spec,
        process,
        required,
        SAGA_COMMIT_RC,
        SAGA_ABORT_RC,
        SagaOutcome,
        programs={step.name: step.program for step in spec.steps},
        compensation_programs={
            step.name: "g" + step.compensation_program for step in spec.steps
        },
        forward_block=forward,
        compensation_block=compensation,
    )


def guarded_compensation_block(
    name: str, description: str, steps, order, max_attempts: int
) -> ProcessDefinition:
    """One guarded compensating activity per step, wired along the
    reversed ``order`` edges.  ``steps`` carry ``name`` and
    ``compensation_program``; a chain's edges give the contract's
    reverse-chain backward recovery."""
    states = [state_var(step.name) for step in steps]
    state_decls = [VariableDecl(s, DataType.LONG) for s in states]
    block = ProcessDefinition(
        name,
        description=description,
        input_spec=list(state_decls),
        output_spec=[VariableDecl("Done", DataType.LONG)]
        + [
            VariableDecl(compensated_var(step.name), DataType.LONG)
            for step in steps
        ],
    )
    block.add_activity(
        Activity(
            "NOP",
            program=NOP_PROGRAM,
            input_spec=list(state_decls),
            output_spec=list(state_decls),
        )
    )
    block.map_data(PROCESS_INPUT, "NOP", [(s, s) for s in states])
    # Sinks of the forward DAG are the sources of the compensation DAG.
    forward_successors = {step.name: [] for step in steps}
    for source, target in order:
        forward_successors[source].append(target)
    for step in steps:
        comp_name = "Comp_%s" % step.name
        block.add_activity(
            Activity(
                comp_name,
                program="g" + step.compensation_program,
                input_spec=list(state_decls),
                output_spec=[VariableDecl("DidRun", DataType.LONG)],
                exit_condition="RC = %d" % SAGA_COMMIT_RC,
                max_iterations=max_attempts,
                description="guarded compensation of %s" % step.name,
            )
        )
        block.map_data(PROCESS_INPUT, comp_name, [(s, s) for s in states])
        block.map_data(
            comp_name,
            PROCESS_OUTPUT,
            [
                ("DidRun", "Done"),
                ("DidRun", compensated_var(step.name)),
                ("_RC", "_RC"),
            ],
        )
        if not forward_successors[step.name]:
            block.connect("NOP", comp_name)  # compensation source
    for source, target in order:
        # Reverse the edge: compensate target before source.
        block.connect("Comp_%s" % target, "Comp_%s" % source)
    return block

