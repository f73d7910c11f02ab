#!/usr/bin/env python3
"""Quickstart: build and run a workflow process, then run a saga
through the Exotica/FMTM pipeline.

Run with::

    python examples/quickstart.py
"""

from repro import Activity, DataType, Engine, ProcessDefinition, VariableDecl
from repro.wfms.model import PROCESS_INPUT, PROCESS_OUTPUT
from repro.tx import SimDatabase, Subtransaction
from repro.tx.subtransaction import write_value
from repro.core.fmtm import FMTMPipeline
from repro.core.saga_translator import translate_saga
from repro.core.speclang import parse_spec
from repro.core.bindings import register_programs, workflow_outcome


def part_one_plain_workflow() -> None:
    """A two-step process with data flow and a conditional branch."""
    print("== Part 1: a plain workflow process ==")
    engine = Engine()

    def double(ctx):
        ctx.set_output("Out", ctx.get_input("In") * 2)
        return 0

    def report(ctx):
        print("   the doubled value is", ctx.get_input("Value"))
        return 0

    engine.register_program("double", double)
    engine.register_program("report", report)

    defn = ProcessDefinition(
        "Quickstart",
        input_spec=[VariableDecl("N", DataType.LONG)],
        output_spec=[VariableDecl("Result", DataType.LONG)],
    )
    defn.add_activity(
        Activity(
            "Double",
            program="double",
            input_spec=[VariableDecl("In", DataType.LONG)],
            output_spec=[VariableDecl("Out", DataType.LONG)],
        )
    )
    defn.add_activity(
        Activity(
            "Report",
            program="report",
            input_spec=[VariableDecl("Value", DataType.LONG)],
        )
    )
    defn.connect("Double", "Report", "RC = 0")
    defn.map_data(PROCESS_INPUT, "Double", [("N", "In")])
    defn.map_data("Double", "Report", [("Out", "Value")])
    defn.map_data("Double", PROCESS_OUTPUT, [("Out", "Result")])
    engine.register_definition(defn)

    result = engine.run_process("Quickstart", {"N": 21})
    print("   process state:", result.state)
    print("   execution order:", result.execution_order)
    print("   output container:", result.output)


def part_two_saga_via_fmtm() -> None:
    """The paper's pipeline: spec text -> FDL -> template -> instance."""
    print("== Part 2: a saga through Exotica/FMTM ==")
    specification = """
    MODEL SAGA 'order'
      STEP 'reserve'
      STEP 'charge'
      STEP 'ship'
    END 'order'
    """
    engine = Engine()
    db = SimDatabase("store")
    spec = parse_spec(specification)
    translation = translate_saga(spec)
    actions = {
        s.name: Subtransaction(s.name, db, write_value(s.name, 1))
        for s in spec.steps
    }
    compensations = {
        s.name: Subtransaction("undo_" + s.name, db, write_value(s.name, 0))
        for s in spec.steps
    }
    register_programs(engine, translation, actions, compensations)

    pipeline = FMTMPipeline(engine)
    report = pipeline.process_specification(specification)
    print("   pipeline stages:")
    for stage in report.stages:
        print("     %-22s %.4fs" % (stage.name, stage.seconds))
    print("   generated FDL: %d characters" % len(report.fdl_text))

    instance = pipeline.create_instance(report)
    engine.run()
    outcome = workflow_outcome(engine, report.translation, instance)
    print("   saga committed:", outcome.committed)
    print("   steps executed:", outcome.executed)
    print("   database state:", db.snapshot())


if __name__ == "__main__":
    part_one_plain_workflow()
    print()
    part_two_saga_via_fmtm()
