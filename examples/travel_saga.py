#!/usr/bin/env python3
"""Travel booking as a saga — the paper's §4.1 (Figure 2) end-to-end.

Books a flight, a hotel and a car at three autonomous sites.  Run A
succeeds; run B hits a sold-out hotel and the workflow engine drives
the compensation block: the flight is cancelled, the data returns to a
consistent all-or-nothing state.

Run with::

    python examples/travel_saga.py
"""

from repro.wfms.engine import Engine
from repro.core.bindings import register_programs, workflow_outcome
from repro.core.saga_translator import translate_saga
from repro.core.sagas import verify_saga_guarantee
from repro.workloads.travel import TravelWorkload


def run(label: str, capacity: int, hotel_capacity: int | None = None) -> None:
    print("== %s ==" % label)
    workload = TravelWorkload.fresh(capacity=capacity)
    if hotel_capacity is not None:
        hotel = workload.mdb.site("hotel")
        with hotel.begin() as txn:
            txn.write("rooms", hotel_capacity)

    translation = translate_saga(workload.spec)
    engine = Engine()
    register_programs(
        engine, translation, workload.actions, workload.compensations
    )
    engine.register_definition(translation.process)

    print("   before:", workload.bookings())
    result = engine.run_process(translation.process_name)
    outcome = workflow_outcome(engine, translation, result.instance_id)

    print("   saga committed:", outcome.committed)
    print("   executed:      ", outcome.executed)
    print("   compensated:   ", outcome.compensated)
    print("   after:         ", workload.bookings())
    print("   reservations:  ", workload.reservation_flags())
    print("   consistent (all-or-nothing):", workload.is_consistent())
    assert workload.is_consistent()
    assert verify_saga_guarantee(
        workload.spec, outcome.executed, outcome.compensated
    )
    print("   subtransaction log:")
    for event in workload.recorder:
        print(
            "     %-18s attempt %d -> %s"
            % (event.name, event.attempt,
               "commit" if event.committed else "abort (%s)" % event.reason)
        )


if __name__ == "__main__":
    run("Run A: everything available", capacity=3)
    print()
    run("Run B: the hotel is sold out", capacity=3, hotel_capacity=0)
