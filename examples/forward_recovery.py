#!/usr/bin/env python3
"""Forward recovery — §3.3.

"In most WFMSs the execution of a process is persistent in the sense
that forward recovery is always guaranteed ... the process execution
is resumed from the point where the failure occurred."

This example runs a five-step process, crashes the engine after two
steps, builds a fresh engine over the same durable store and resumes:
steps already completed are *not* re-executed; pending work continues.
The store has no checkpoint policy, so recovery replays its whole
journal.

Run with::

    python examples/forward_recovery.py
"""

import os
import tempfile

from repro import Activity, Engine, ProcessDefinition
from repro.store import DurableStore

STEPS = ["Extract", "Validate", "Transform", "Load", "Report"]
invocations: dict[str, int] = {}


def build_engine(store_dir: str) -> Engine:
    engine = Engine(store=DurableStore(store_dir))

    def make(step: str):
        def program(ctx) -> int:
            invocations[step] = invocations.get(step, 0) + 1
            return 0

        return program

    for step in STEPS:
        engine.register_program("run_%s" % step.lower(), make(step))
    defn = ProcessDefinition("Pipeline")
    for step in STEPS:
        defn.add_activity(Activity(step, program="run_%s" % step.lower()))
    for left, right in zip(STEPS, STEPS[1:]):
        defn.connect(left, right, "RC = 0")
    engine.register_definition(defn)
    return engine


def main() -> None:
    store_dir = os.path.join(tempfile.mkdtemp(), "pipeline")
    print("store:", store_dir)

    engine = build_engine(store_dir)
    instance = engine.start_process("Pipeline")
    engine.step()
    engine.step()
    print("before crash:", engine.activity_states(instance))
    print("invocations: ", invocations)

    print("\n*** machine failure ***\n")
    engine.crash()

    recovered = build_engine(store_dir)
    replayed = recovered.recover()
    print("replayed %d completed activities from the journal" % replayed)
    print("after recovery:", recovered.activity_states(instance))

    recovered.run()
    print("after resume:  ", recovered.activity_states(instance))
    print("invocations:   ", invocations)
    assert recovered.instance_state(instance) == "finished"
    assert all(count == 1 for count in invocations.values()), (
        "forward recovery must not re-execute completed activities"
    )
    print("\nevery step ran exactly once — forward recovery held.")


if __name__ == "__main__":
    main()
