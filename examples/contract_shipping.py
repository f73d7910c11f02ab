#!/usr/bin/env python3
"""A ConTract-style shipping contract — the FMTM extensibility claim.

§5: "we can extend the pre-processor to convert any advanced
transaction model specification into a correct FlowMark process
implementation."  This example feeds a third model — a ConTract-style
script with entry invariants — through the same pipeline used for
sagas and flexible transactions, then runs it for three different
contexts.

Run with::

    python examples/contract_shipping.py
"""

from repro.tx import AbortScript, SimDatabase, Subtransaction
from repro.tx.subtransaction import write_value
from repro.wfms.engine import Engine
from repro.core.contract import translate_contract
from repro.core.bindings import register_programs, workflow_outcome
from repro.core.fmtm import FMTMPipeline
from repro.core.speclang import parse_spec

SPECIFICATION = """
MODEL CONTRACT 'shipping'
  CONTEXT 'Weight'   LONG
  CONTEXT 'Priority' LONG
  STEP 'pick'
  STEP 'weigh'
  STEP 'book_freight' WHEN "Weight > 30" COMPENSATION 'cancel_freight'
  STEP 'book_courier' WHEN "Weight <= 30"
  STEP 'express_tag'  WHEN "Priority = 1"
  STEP 'dispatch'     WHEN "Weight > 0" CRITICAL
END 'shipping'
"""


def run(label, context, aborts=()):
    print("== %s (context %s) ==" % (label, context))
    spec = parse_spec(SPECIFICATION)
    database = SimDatabase("warehouse")
    actions = {
        s.name: Subtransaction(s.name, database, write_value(s.name, 1))
        for s in spec.steps
    }
    for name in aborts:
        actions[name].policy = AbortScript([1])
    compensations = {
        s.name: Subtransaction(
            "undo_" + s.name, database, write_value(s.name, 0)
        )
        for s in spec.steps
    }
    engine = Engine()
    translation = translate_contract(spec)
    register_programs(engine, translation, actions, compensations)
    pipeline = FMTMPipeline(engine)
    report = pipeline.process_specification(SPECIFICATION)
    instance = engine.start_process(report.process_name, context)
    engine.run()
    outcome = workflow_outcome(engine, report.translation, instance)
    print("   committed:  ", outcome.committed)
    print("   executed:   ", outcome.executed)
    print("   skipped:    ", outcome.skipped)
    print("   compensated:", outcome.compensated)
    print("   warehouse:  ", database.snapshot())
    print()


if __name__ == "__main__":
    run("heavy priority parcel", {"Weight": 80, "Priority": 1})
    run("light regular parcel", {"Weight": 5, "Priority": 0})
    run(
        "dispatch fails -> backward recovery",
        {"Weight": 80, "Priority": 0},
        aborts=("dispatch",),
    )
