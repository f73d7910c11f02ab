"""Socket transport behaviour: parity, admission control, recovery.

The contract under test: a :class:`SocketBus` against a live broker is
observationally identical to the in-memory :class:`MessageBus` — same
values, same typed errors, same stats — plus the broker-only concerns
(bounded queues, load shedding, connection resets) fail in the typed,
recoverable ways DESIGN.md §14 promises.
"""

from __future__ import annotations

import pytest

from repro.errors import (
    ConnectionLost,
    LoadShedded,
    NetError,
    QueueOverflow,
    WorkflowError,
)
from repro.net import BusServerThread, SocketBus
from repro.resilience.faults import FaultInjector, FaultRule
from repro.resilience.policies import CircuitBreaker
from repro.wfms.messaging import MessageBus
from tests.chaos_harness import connect


@pytest.fixture()
def broker():
    with BusServerThread() as server:
        yield server


# ---------------------------------------------------------------------------
# parity with the in-memory bus
# ---------------------------------------------------------------------------


def _exercise(bus):
    """One scripted op sequence; returns every observable result."""
    log = []
    log.append(bus.send("node:w", {"n": 1}, {"trace-id": "t1"}))
    log.append(bus.send("node:w", {"n": 2}))
    log.append(bus.receive_with_headers("node:w"))
    log.append(bus.receive("node:w"))
    log.append(bus.receive("node:w"))  # empty -> None
    msg_id = log[2][0]
    bus.nack("node:w", msg_id)
    log.append(bus.receive("node:w"))  # redelivery
    log.append(bus.deliveries("node:w", msg_id))
    bus.ack("node:w", msg_id)
    log.append(bus.dead_letter("node:w", log[3][0], "poison"))
    log.append(bus.depth("node:w"))
    log.append(bus.queues())
    log.append(bus.stats("node:w"))
    log.append(bus.dlq_entries("node:w"))
    log.append(bus.dlq_drain("node:w", requeue=True))
    log.append(bus.recover_in_flight())
    log.append(bus.stats())
    return log


def test_socket_bus_matches_in_memory_bus(broker):
    with connect(broker.address, name="parity") as socket_bus:
        over_wire = _exercise(socket_bus)
    in_memory = _exercise(MessageBus())
    assert over_wire == in_memory


def test_typed_errors_cross_the_wire(broker):
    with connect(broker.address) as bus:
        with pytest.raises(WorkflowError, match="unknown message"):
            bus.ack("node:w", "m999999")
        msg_id = bus.send("node:w", {"n": 1})
        with pytest.raises(WorkflowError, match="was not in flight"):
            bus.ack("node:w", msg_id)  # never received


def test_headers_roundtrip_verbatim(broker):
    headers = {
        "trace-id": "0123456789abcdef",
        "span-id": "fedcba98",
        "request-id": "req/front/pi-0001/CallDouble",
    }
    with connect(broker.address) as bus:
        bus.send("node:w", {"payload": [1, 2, {"deep": None}]}, headers)
        msg_id, body, got = bus.receive_with_headers("node:w")
        assert got == headers
        assert body == {"payload": [1, 2, {"deep": None}]}


# ---------------------------------------------------------------------------
# admission control: bounded queues and load shedding
# ---------------------------------------------------------------------------


def test_overflow_rejects_and_dead_letters():
    with BusServerThread(queue_capacity=2) as server:
        with connect(server.address) as bus:
            bus.send("node:w", {"n": 1})
            bus.send("node:w", {"n": 2})
            with pytest.raises(QueueOverflow) as info:
                bus.send("node:w", {"n": 3}, {"request-id": "r3"})
            assert info.value.queue == "node:w"
            # nack-on-overflow: the message fed the dead-letter path,
            # headers intact plus the rejection reason
            [row] = bus.dlq_entries("node:w")
            assert row["body"] == {"n": 3}
            assert row["headers"]["request-id"] == "r3"
            assert "overflow" in row["headers"]["dead-letter-reason"]
            # the queue itself never grew past its bound
            assert bus.depth("node:w") == 2
            assert bus.stats("node:w")["overflowed"] == 1
            # an operator drain replays the rejected message
            assert bus.dlq_drain("node:w") == 1
            assert bus.depth("node:w") == 3


def test_dlq_sends_are_exempt_from_capacity():
    with BusServerThread(queue_capacity=1) as server:
        with connect(server.address) as bus:
            for n in range(4):
                try:
                    bus.send("node:w", {"n": n})
                except QueueOverflow:
                    pass
            assert bus.depth("node:w") == 1
            assert bus.depth("dlq:node:w") == 3  # every rejection kept


def test_per_queue_capacity_override():
    with BusServerThread(
        queue_capacity=1, capacities={"node:big": 3}
    ) as server:
        with connect(server.address) as bus:
            for n in range(3):
                bus.send("node:big", {"n": n})  # override honoured
            bus.send("node:small", {"n": 1})
            with pytest.raises(QueueOverflow):
                bus.send("node:small", {"n": 2})  # default bound of 1


def test_breaker_sheds_after_sustained_overflow():
    with BusServerThread(
        queue_capacity=1,
        breaker_factory=lambda: CircuitBreaker(
            failure_threshold=2, reset_after=3.0
        ),
    ) as server:
        with connect(server.address) as bus:
            bus.send("node:w", {"n": 0})
            for __ in range(2):
                with pytest.raises(QueueOverflow):
                    bus.send("node:w", {"n": 1})
            # breaker open: rejected up front, nothing stored anywhere
            dlq_before = len(bus.dlq_entries("node:w"))
            with pytest.raises(LoadShedded) as info:
                bus.send("node:w", {"n": 2})
            assert info.value.queue == "node:w"
            assert len(bus.dlq_entries("node:w")) == dlq_before
            assert bus.stats("node:w")["shed"] == 1
            assert bus.snapshot()["breakers"]["node:w"] == "open"
            # the admission clock advances per decision: after the
            # cooldown a half-open trial admits again
            bus.ack("node:w", bus.receive("node:w")[0])
            for __ in range(4):
                try:
                    bus.send("node:w", {"n": 3})
                    break
                except (LoadShedded, QueueOverflow):
                    continue
            assert bus.depth("node:w") == 1


# ---------------------------------------------------------------------------
# connection lifecycle
# ---------------------------------------------------------------------------


def test_injected_reset_is_retried_transparently():
    injector = FaultInjector(
        [FaultRule("net.connection", "reset", schedule=frozenset({2, 4}))],
        seed=3,
    )
    with BusServerThread(fault_injector=injector) as server:
        with connect(server.address, name="flaky") as bus:
            for n in range(5):
                bus.send("node:w", {"n": n})
            # every send landed exactly once despite two resets
            assert bus.depth("node:w") == 5
            assert bus.reconnects == 2
            assert injector.trace() == [
                ("net.connection", "flaky", "reset", 2),
                ("net.connection", "flaky", "reset", 4),
            ]


def test_reconnect_budget_exhaustion_raises_connection_lost():
    server = BusServerThread()
    bus = connect(server.address, connect_retries=2, backoff=0.01)
    server.close()
    with pytest.raises(ConnectionLost, match="exhausted"):
        bus.ping()
    bus.close()
    with pytest.raises(NetError, match="closed"):
        bus.ping()


def test_connect_to_nothing_raises_connection_lost():
    with pytest.raises(ConnectionLost, match="could not connect"):
        SocketBus("127.0.0.1", 1, connect_retries=2, backoff=0.01)


def test_in_flight_recovery_over_the_wire(broker):
    """A consumer crash leaves messages in flight; a fresh connection
    recovers them for redelivery — state lives in the broker, not the
    connection."""
    with connect(broker.address, name="consumer-1") as bus:
        bus.send("node:w", {"n": 1})
        bus.receive("node:w")  # in flight, never acked
    with connect(broker.address, name="consumer-2") as bus:
        assert bus.receive("node:w") is None  # still marked in flight
        assert bus.recover_in_flight("node:w") == 1
        msg_id, body = bus.receive("node:w")
        assert body == {"n": 1}
        assert bus.deliveries("node:w", msg_id) == 2


# ---------------------------------------------------------------------------
# chaos rules behind the transport
# ---------------------------------------------------------------------------


def test_injector_installed_over_the_wire_drives_bus_sends():
    rules = [
        FaultRule("bus.send", "drop", schedule=frozenset({2})),
        FaultRule("bus.send", "duplicate", schedule=frozenset({3})),
    ]
    with BusServerThread() as server:
        with connect(server.address) as bus:
            bus.install_injector(FaultInjector(rules, seed=11))
            ids = [bus.send("node:w", {"n": n}) for n in range(3)]
            assert len(ids) == 3  # drop still returns an id
            assert bus.depth("node:w") == 3  # 3 - 1 dropped + 1 twin
            assert bus.injector_trace() == [
                ("bus.send", "node:w", "drop", 2),
                ("bus.send", "node:w", "duplicate", 3),
            ]
            stats = bus.stats("node:w")
            assert stats["dropped"] == 1
            assert stats["duplicated"] == 1


def test_snapshot_reports_connections_and_totals(broker):
    with connect(broker.address, name="alpha") as a, connect(
        broker.address, name="beta"
    ) as b:
        a.send("node:w", {"n": 1})
        snapshot = b.snapshot()
        names = {row["name"] for row in snapshot["connections"]}
        assert {"alpha", "beta"} <= names
        assert snapshot["accepted_total"] >= 2
        assert snapshot["queues"]["node:w"]["depth"] == 1
        assert snapshot["queues"]["node:w"]["sent"] == 1


def test_server_refuses_garbage_bytes(broker):
    import socket as socketlib

    host, port = broker.address
    with socketlib.create_connection((host, port), timeout=5) as raw:
        raw.sendall((2**31).to_bytes(4, "big"))
        reply = raw.recv(65536)
        assert b"frame" in reply
        assert raw.recv(65536) == b""  # then hangs up
