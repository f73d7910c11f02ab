"""Workflow clusters over the real socket transport.

The tentpole claim of this subsystem: `WorkflowNode` code is
transport-agnostic.  Every test here runs the *existing* distributed
demo topology (Front calls Double remotely, adds one) with the only
change being the bus object handed to the nodes — a
:class:`SocketBus` per node against one broker instead of a shared
in-memory :class:`MessageBus`.  Request/reply, crash/rebuild with
in-flight recovery, and exactly-once semantics must hold unchanged.
"""

from __future__ import annotations

import pytest

from repro.net import BrokerProcess, BusServerThread
from repro.store import DurableStore
from repro.wfms.distributed import run_cluster
from repro.workloads.distributed_demo import (
    configure_requester,
    configure_worker,
    make_requester,
    make_worker,
)
from tests.chaos_harness import connect, served


@pytest.fixture()
def broker():
    with BusServerThread() as server:
        yield server


def test_request_reply_over_sockets(broker):
    with connect(broker.address, name="worker") as worker_bus, connect(
        broker.address, name="front"
    ) as front_bus:
        worker = make_worker(worker_bus)
        front = make_requester(front_bus)
        iid = front.engine.start_process("Front", {"N": 7})
        run_cluster([worker, front], watch=[(front, iid)])
        assert front.engine.output(iid)["Result"] == 15  # 2*7 + 1


def test_many_requests_each_served_exactly_once(broker):
    with connect(broker.address, name="worker") as worker_bus, connect(
        broker.address, name="front"
    ) as front_bus:
        worker = make_worker(worker_bus)
        front = make_requester(front_bus)
        iids = [
            front.engine.start_process("Front", {"N": n}) for n in range(5)
        ]
        run_cluster([worker, front], watch=[(front, iid) for iid in iids])
        for n, iid in enumerate(iids):
            assert front.engine.output(iid)["Result"] == 2 * n + 1
        requests = served(worker)
        assert len(requests) == len(set(requests)) == 5


def test_node_crash_rebuild_and_in_flight_recovery(broker, tmp_path):
    """Crash the worker mid-conversation: its SocketBus survives, the
    broker recovers the in-flight request for redelivery, the rebuilt
    engine replays its journal and serves exactly once."""
    with connect(broker.address, name="worker") as worker_bus, connect(
        broker.address, name="front"
    ) as front_bus:
        worker = make_worker(
            worker_bus, store_factory=lambda: DurableStore(tmp_path / "worker")
        )
        front = make_requester(
            front_bus,
            store_factory=lambda: DurableStore(tmp_path / "front"),
            request_timeout=5.0,
            request_retries=6,
        )
        iid = front.engine.start_process("Front", {"N": 21})
        # let the request land on the worker, then tear the worker
        for __ in range(3):
            front.pump()
            worker.pump()
        worker.crash()  # recovers in-flight messages over the wire
        worker.rebuild(configure_worker)
        run_cluster([worker, front], watch=[(front, iid)])
        assert front.engine.output(iid)["Result"] == 43
        assert served(worker) == ["req/front/pi-0001/CallDouble"]


def test_cluster_against_broker_in_another_process(tmp_path):
    """The full topology with the broker in its own OS process — two
    engines, three processes, real sockets end to end."""
    with BrokerProcess() as broker:
        with connect(broker.address, name="worker") as worker_bus, connect(
            broker.address, name="front"
        ) as front_bus:
            worker = make_worker(worker_bus)
            front = make_requester(front_bus)
            iid = front.engine.start_process("Front", {"N": 4})
            run_cluster([worker, front], watch=[(front, iid)])
            assert front.engine.output(iid)["Result"] == 9
    assert not broker.alive()


def test_rebuild_reuses_the_same_connection(broker, tmp_path):
    """rebuild() constructs a fresh engine but keeps the node's bus —
    no reconnect storm, no lost queue state."""
    with connect(broker.address, name="worker") as worker_bus:
        worker = make_worker(
            worker_bus, store_factory=lambda: DurableStore(tmp_path / "w")
        )
        worker.crash()
        worker.rebuild(configure_worker)
        assert worker.bus is worker_bus
        assert worker_bus.reconnects == 0
