#!/usr/bin/env python3
"""Tour of the observability subsystem (metrics, spans, hooks).

Runs the §4.1 travel saga on an engine with observability enabled and
forces the hotel to be sold out, so the trace shows both the forward
path and the compensation.  Along the way:

* **hooks** — a subscriber prints activity completions live;
* **spans** — the finished trace is rendered as a tree (the
  compensation activities appear inside the same process span);
* **metrics** — the Prometheus exposition text for the run;
* **snapshot** — the JSON snapshot is written and re-rendered through
  ``repro.tools.monitor``, exactly as an external process would.

Run with::

    python examples/observability_tour.py
"""

import os
import tempfile

from repro.core.bindings import register_programs, workflow_outcome
from repro.core.saga_translator import translate_saga
from repro.obs import ActivityCompleted, ProcessFinished
from repro.obs.export import span_tree_lines, to_prometheus_text, write_snapshot
from repro.tools.monitor import render_snapshot
from repro.wfms.engine import Engine
from repro.workloads.travel import TravelWorkload


def main() -> None:
    workload = TravelWorkload.fresh(capacity=3)
    hotel = workload.mdb.site("hotel")
    with hotel.begin() as txn:
        txn.write("rooms", 0)  # sold out -> the saga must compensate

    translation = translate_saga(workload.spec)
    engine = Engine(observability=True)
    register_programs(
        engine, translation, workload.actions, workload.compensations
    )
    engine.register_definition(translation.process)

    print("== live hook events ==")

    @engine.obs.hooks.subscribe(ActivityCompleted)
    def on_completion(event: ActivityCompleted) -> None:
        print(
            "   completed %-22s attempt %d rc=%s (%s)"
            % (event.activity, event.attempt, event.return_code, event.outcome)
        )

    engine.obs.hooks.subscribe(
        ProcessFinished,
        lambda event: print("   process finished: %s" % event.instance_id),
    )

    result = engine.run_process(translation.process_name)
    outcome = workflow_outcome(engine, translation, result.instance_id)
    print("   saga committed:", outcome.committed)
    print("   executed:      ", outcome.executed)
    print("   compensated:   ", outcome.compensated)
    assert not outcome.committed  # the hotel was sold out
    assert workload.is_consistent()

    print("\n== trace (span tree) ==")
    for line in span_tree_lines(engine.obs.tracer.export()):
        print("   " + line)

    print("\n== metrics (Prometheus text, counters only) ==")
    for line in to_prometheus_text(engine.obs.metrics).splitlines():
        if line.startswith("#") or "_bucket" in line or "_sum" in line:
            continue
        print("   " + line)

    print("\n== snapshot -> repro.tools.monitor ==")
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "snapshot.json")
        write_snapshot(engine, path)
        import json

        with open(path, "r", encoding="utf-8") as handle:
            snapshot = json.load(handle)
    for line in render_snapshot(snapshot, max_spans=12):
        print("   " + line)


if __name__ == "__main__":
    main()
