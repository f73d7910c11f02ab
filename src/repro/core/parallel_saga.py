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
  forward DAG and exactly the committed steps are compensated.

The guarded construction also works for linear sagas, which makes it
the natural **ablation** against Figure 2: dead-path elimination skips
never-executed compensations inside the navigator (j activities run at
abort position j), while guarding runs all n compensating activities
and skips inside the program.  ``benchmarks/bench_ablation_comp.py``
compares them; both are behaviourally identical.
"""

from __future__ import annotations

from repro.errors import SpecificationError
from repro.tx.subtransaction import Subtransaction
from repro.wfms.datatypes import DataType, VariableDecl
from repro.wfms.engine import Engine
from repro.wfms.model import (
    PROCESS_INPUT,
    PROCESS_OUTPUT,
    Activity,
    ActivityKind,
    ProcessDefinition,
)
from repro.core.bindings import nop_program
from repro.core.compblock import NOP_PROGRAM, state_var
from repro.core.sagas import SagaOutcome, SagaSpec
from repro.core.saga_translator import (
    SAGA_ABORT_RC,
    SAGA_COMMIT_RC,
    SagaTranslation,
    _forward_block,
)


def translate_parallel_saga(
    spec: SagaSpec, *, max_compensation_attempts: int = 100
) -> SagaTranslation:
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
    process = ProcessDefinition(
        "PSaga_%s" % spec.name,
        description="guarded (parallel-saga) translation of %r" % spec.name,
        output_spec=list(state_decls)
        + [VariableDecl("Compensated", DataType.LONG)],
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
            output_spec=[VariableDecl("Done", DataType.LONG)],
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
    process.map_data("Compensation", PROCESS_OUTPUT, [("Done", "Compensated")])
    process.validate()
    required = {NOP_PROGRAM: "null activity"}
    for step in spec.steps:
        required[step.program] = "subtransaction %s" % step.name
        required["g" + step.compensation_program] = (
            "guarded compensation of %s" % step.name
        )
    return SagaTranslation(spec, process, forward, compensation, required)


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
        output_spec=[VariableDecl("Done", DataType.LONG)],
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
            comp_name, PROCESS_OUTPUT, [("DidRun", "Done"), ("_RC", "_RC")]
        )
        if not forward_successors[step.name]:
            block.connect("NOP", comp_name)  # compensation source
    for source, target in order:
        # Reverse the edge: compensate target before source.
        block.connect("Comp_%s" % target, "Comp_%s" % source)
    return block


def guarded_compensation_program(
    compensation: Subtransaction, step_name: str
):
    """Program wrapper: skip when the forward step never committed."""
    guard = state_var(step_name)

    def program(ctx) -> int:
        if not ctx.input.has(guard) or ctx.input.get(guard) != 1:
            ctx.output.set("DidRun", 0)
            return SAGA_COMMIT_RC
        outcome = compensation.execute()
        if outcome.committed:
            ctx.output.set("DidRun", 1)
            return SAGA_COMMIT_RC
        return SAGA_ABORT_RC

    program.__name__ = "guarded_comp_%s" % step_name
    return program


def register_parallel_saga_programs(
    engine: Engine,
    translation: SagaTranslation,
    actions: dict[str, Subtransaction],
    compensations: dict[str, Subtransaction],
) -> None:
    """Register forward programs and guarded compensation programs.

    Any translation whose ``spec.steps`` carry ``program`` and
    ``compensation_program`` qualifies (the contract's does)."""
    spec = translation.spec
    engine.register_program(NOP_PROGRAM, nop_program, replace=True)
    for step in spec.steps:
        if step.name not in actions:
            raise SpecificationError("no action bound for %r" % step.name)
        if step.name not in compensations:
            raise SpecificationError(
                "no compensation bound for %r" % step.name
            )
        engine.register_program(
            step.program,
            actions[step.name].as_program(
                commit_rc=SAGA_COMMIT_RC, abort_rc=SAGA_ABORT_RC
            ),
            replace=True,
        )
        engine.register_program(
            "g" + step.compensation_program,
            guarded_compensation_program(
                compensations[step.name], step.name
            ),
            replace=True,
        )


def workflow_parallel_saga_outcome(
    engine: Engine, translation: SagaTranslation, instance_id: str
) -> SagaOutcome:
    """Outcome of a guarded-translation run.

    ``compensated`` lists the steps whose compensation *actually ran*
    (guards skipped the rest), in termination order.
    """
    spec = translation.spec
    output = engine.output(instance_id)
    executed = [
        step.name
        for step in spec.steps
        if output.get(state_var(step.name)) == 1
    ]
    compensated = guarded_compensated(engine, instance_id, "Compensation")
    committed = len(executed) == len(spec.steps) and not compensated
    return SagaOutcome(
        committed=committed, executed=executed, compensated=compensated
    )


def guarded_compensated(
    engine: Engine, instance_id: str, block_activity: str
) -> list[str]:
    """Steps whose guarded compensation actually ran (``DidRun = 1``)
    inside the instance's ``block_activity``, in termination order."""
    compensated: list[str] = []
    block = engine.navigator.instance(instance_id).activities.get(
        block_activity
    )
    if block is None or not block.child_instance:
        return compensated
    child = engine.navigator.instance(block.child_instance)
    for name in engine.audit.execution_order(block.child_instance):
        if not name.startswith("Comp_"):
            continue
        ai = child.activity(name)
        if ai.output is not None and ai.output.resolver("DidRun") == 1:
            compensated.append(name[len("Comp_"):])
    return compensated
