"""DIST — distributed workflow over persistent messages (extension,
after Exotica/FMQM [AAE+95]).

Measures remote-subprocess round-trip cost through the message bus and
verifies the crash-safety contract: a worker crash between receiving a
request and acknowledging it neither loses nor duplicates work.
"""

import pytest

from repro.store import DurableStore
from repro.wfms.distributed import run_cluster
from repro.wfms.messaging import MessageBus

from repro.workloads.distributed_demo import (
    configure_requester,
    configure_worker,
    make_requester,
    make_worker,
)

from _helpers import print_table


def test_remote_round_trip(benchmark):
    bus = MessageBus()
    worker = make_worker(bus)
    front = make_requester(bus)

    def one_call():
        iid = front.engine.start_process("Front", {"N": 21})
        run_cluster([front, worker], watch=[(front, iid)])
        return front.engine.output(iid)["Result"]

    result = benchmark(one_call)
    assert result == 43


def test_throughput_many_requests(benchmark):
    def batch():
        bus = MessageBus()
        worker = make_worker(bus)
        front = make_requester(bus)
        ids = [
            front.engine.start_process("Front", {"N": n})
            for n in range(10)
        ]
        run_cluster([front, worker], watch=[(front, i) for i in ids])
        return [front.engine.output(i)["Result"] for i in ids]

    results = benchmark(batch)
    assert results == [n * 2 + 1 for n in range(10)]


def test_crash_safety_summary(benchmark, tmp_path):
    rows = []
    # requester crash
    bus = MessageBus()
    worker = make_worker(bus)
    front = make_requester(
        bus, store_factory=lambda: DurableStore(tmp_path / "f")
    )
    iid = front.engine.start_process("Front", {"N": 7})
    front.engine.step()
    front.crash()
    front.rebuild(configure_requester)
    rounds = run_cluster([front, worker], watch=[(front, iid)])
    rows.append(
        ("requester crash mid-call", front.engine.output(iid)["Result"], rounds)
    )
    # worker crash with unacked request
    bus2 = MessageBus()
    worker2 = make_worker(
        bus2, store_factory=lambda: DurableStore(tmp_path / "w")
    )
    front2 = make_requester(bus2)
    iid2 = front2.engine.start_process("Front", {"N": 4})
    front2.engine.step()
    bus2.receive("node:worker")  # in flight, never acked
    worker2.crash()
    worker2.rebuild(configure_worker)
    rounds2 = run_cluster([front2, worker2], watch=[(front2, iid2)])
    rows.append(
        ("worker crash, unacked request", front2.engine.output(iid2)["Result"], rounds2)
    )
    print_table(
        "DIST: crash safety (result must be exact, no loss/duplication)",
        ["scenario", "result", "rounds to converge"],
        rows,
    )
    assert rows[0][1] == 15 and rows[1][1] == 9

    bus3 = MessageBus()
    worker3 = make_worker(bus3)
    front3 = make_requester(bus3)

    def ok_path():
        iid3 = front3.engine.start_process("Front", {"N": 1})
        run_cluster([front3, worker3], watch=[(front3, iid3)])

    benchmark(ok_path)
