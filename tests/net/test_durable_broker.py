"""The durable broker end to end: restart preservation, op-level
idempotency, session resume, heartbeat reaping, and the monitor view.

These tests run the real :class:`BusServerThread` + :class:`SocketBus`
stack against a durable directory and bounce the broker — cleanly
(context-manager close) and abruptly (injected ``broker.crash``) —
asserting the DESIGN.md §15 contract: nothing acknowledged is lost,
nothing replayed is double-applied, consumers keep their in-flight
claims across the restart.
"""

from __future__ import annotations

import time

import pytest

from repro.errors import ConnectionLost, NetError, QueueOverflow
from repro.net import BusServerThread
from repro.resilience.faults import FaultInjector, FaultRule
from repro.tools.monitor import render_net
from tests.chaos_harness import connect, drain, normalized_broker


# ---------------------------------------------------------------------------
# restart preservation
# ---------------------------------------------------------------------------


def test_clean_restart_preserves_queues_stats_and_ids(tmp_path):
    durable = str(tmp_path / "broker")
    with BusServerThread(durable_dir=durable, name="d") as server:
        with connect(server.address, name="producer") as bus:
            assert bus.server_info["durable"] is True
            assert bus.server_info["epoch"] == 1
            for n in range(3):
                bus.send("orders", {"n": n}, {"k": "v%d" % n})
            msg_id, __ = bus.receive("orders")
            bus.ack("orders", msg_id)
            before = normalized_broker(bus.snapshot())["queues"]

    with BusServerThread(durable_dir=durable, name="d") as server:
        with connect(server.address, name="checker") as bus:
            assert bus.server_info["epoch"] == 2
            snap = bus.snapshot()
            # delivered/redelivered drift in the replay window is the
            # documented exception; everything else matches exactly
            assert normalized_broker(snap)["queues"] == before
            assert snap["durable"]["recovery"]["replayed_records"] == 4
            # the id sequence continues past recovered messages
            fresh = bus.send("orders", {"n": 99})
            taken = {bus.receive("orders")[0] for __ in range(3)}
            assert fresh not in taken or len(taken) == 3


def test_dlq_survives_restart_and_drains_over_the_wire(tmp_path):
    durable = str(tmp_path / "broker")
    with BusServerThread(durable_dir=durable, queue_capacity=2) as server:
        with connect(server.address, name="producer") as bus:
            bus.send("jobs", {"n": 0})
            bus.send("jobs", {"n": 1}, {"origin": "test"})
            with pytest.raises(QueueOverflow):
                bus.send("jobs", {"n": 2}, {"origin": "spill"})
            msg_id, __ = bus.receive("jobs")
            bus.dead_letter("jobs", msg_id, "poison")
            assert len(bus.dlq_entries("jobs")) == 2

    with BusServerThread(durable_dir=durable, queue_capacity=2) as server:
        with connect(server.address, name="operator") as bus:
            entries = bus.dlq_entries("jobs")
            reasons = sorted(
                row["headers"]["dead-letter-reason"] for row in entries
            )
            assert reasons == ["poison", "queue overflow: depth 2 at capacity 2"]
            origins = sorted(
                row["headers"].get("origin", "") for row in entries
            )
            assert origins == ["", "spill"]
            # drainable over the wire — and the drain itself is journaled
            assert bus.dlq_drain("jobs", requeue=True) == 2
            assert bus.depth("jobs") == 3

    with BusServerThread(durable_dir=durable, queue_capacity=2) as server:
        with connect(server.address, name="verifier") as bus:
            assert bus.depth("jobs") == 3
            assert bus.dlq_entries("jobs") == []


# ---------------------------------------------------------------------------
# op-level idempotency (satellite 1: the reconnect double-apply window)
# ---------------------------------------------------------------------------


def test_reply_loss_between_apply_and_reply_does_not_double_apply(tmp_path):
    """Regression for the PR 8 hole: a connection reset *after* the
    broker applied an op but *before* the reply frame went out made
    the client replay the op — and sends double-applied.  With op ids
    the replay hits the broker's dedup table instead."""
    with BusServerThread(durable_dir=str(tmp_path / "b")) as server:
        with connect(server.address, name="flaky") as bus:
            bus.install_injector(
                FaultInjector(
                    [
                        FaultRule(
                            "net.reply",
                            "reset",
                            match="flaky",
                            schedule=frozenset({2}),
                        )
                    ],
                    seed=11,
                )
            )
            first = bus.send("pay", {"amount": 5})  # applied, reply lost
            second = bus.send("pay", {"amount": 7})
            snap = bus.snapshot()
            assert bus.reconnects == 1
            assert snap["dedup_hits"] == 1
            assert snap["queues"]["pay"]["sent"] == 2
            assert snap["queues"]["pay"]["depth"] == 2
            assert first != second


def test_dedup_survives_broker_crash_via_retry_pending(tmp_path):
    """The worst window: broker journals the op, caches the reply,
    then dies before replying.  The client's ConnectionLost leaves the
    request pending; after a restart over the same directory,
    ``retry_pending`` replays the same op id and gets the *recovered*
    cached reply — never a second application."""
    durable = str(tmp_path / "broker")
    with BusServerThread(durable_dir=durable, name="d") as server:
        address = server.address
        with connect(address, name="payer", connect_retries=3) as bus:
            bus.install_injector(
                FaultInjector(
                    [
                        FaultRule(
                            "broker.crash",
                            "crash",
                            match="send",
                            schedule=frozenset({1}),
                        )
                    ],
                    seed=0,
                )
            )
            with pytest.raises(ConnectionLost):
                bus.send("pay", {"amount": 9})
            assert bus.pending_op == "send"
            assert server.server.crashed

            # restart over the same directory, same port
            with BusServerThread(
                durable_dir=durable, name="d", port=address[1]
            ) as restarted:
                msg_id = bus.retry_pending()
                assert msg_id == "m000000"
                snap = bus.snapshot()
                assert snap["epoch"] == 2
                assert snap["dedup_hits"] == 1
                assert snap["queues"]["pay"]["depth"] == 1
                assert snap["queues"]["pay"]["sent"] == 1
                assert bus.broker_restarts == 1
                assert restarted.server.recovery["replayed_records"] == 1


def test_dedup_survives_crash_when_checkpoint_lands_on_crashing_op(tmp_path):
    """Regression: the checkpoint used to snapshot the session table
    *before* the current op's dedup entry was stored, while its offset
    covered the op's journal record.  With ``checkpoint_every`` landing
    exactly on the op that crashes the broker, recovery replayed an
    empty journal suffix over a session table missing that op — and the
    client's replay double-applied.  The entry is now stored before the
    checkpoint, so the recovered table always includes the op covered
    by the checkpoint offset."""
    durable = str(tmp_path / "broker")
    with BusServerThread(
        durable_dir=durable, name="d", checkpoint_every=1
    ) as server:
        address = server.address
        with connect(address, name="payer", connect_retries=3) as bus:
            bus.install_injector(
                FaultInjector(
                    [
                        FaultRule(
                            "broker.crash",
                            "crash",
                            match="send",
                            schedule=frozenset({1}),
                        )
                    ],
                    seed=0,
                )
            )
            with pytest.raises(ConnectionLost):
                bus.send("pay", {"amount": 9})
            assert server.server.crashed

            with BusServerThread(
                durable_dir=durable, name="d", port=address[1]
            ) as restarted:
                # the crashing op is inside the checkpoint, not the
                # journal suffix
                assert restarted.server.recovery["replayed_records"] == 0
                assert bus.retry_pending() == "m000000"
                snap = bus.snapshot()
                assert snap["dedup_hits"] == 1
                assert snap["queues"]["pay"]["depth"] == 1
                assert snap["queues"]["pay"]["sent"] == 1


def test_retry_pending_without_pending_raises():
    with BusServerThread() as server:
        with connect(server.address) as bus:
            with pytest.raises(NetError):
                bus.retry_pending()


def test_session_table_is_bounded_lru(tmp_path):
    """Client churn must not grow the dedup table (and every
    checkpoint re-serializing it) without bound: beyond ``session_cap``
    the oldest-by-op-order session is evicted."""
    with BusServerThread(
        durable_dir=str(tmp_path / "b"), session_cap=2
    ) as server:
        clients = [
            connect(server.address, name="c%d" % n) for n in range(3)
        ]
        try:
            for n, bus in enumerate(clients):
                bus.send("q", {"n": n})
            snap = clients[0].snapshot()
            assert snap["session_cap"] == 2
            assert snap["sessions"] == 2
            assert snap["sessions_evicted"] == 1
        finally:
            for bus in clients:
                bus.close()


def test_concurrent_clients_never_share_a_session():
    """The session nonce is drawn atomically: same-named clients
    constructed concurrently from different threads (the traffic
    driver does this) get distinct op-id namespaces."""
    import concurrent.futures

    with BusServerThread() as server:
        with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
            clients = list(
                pool.map(
                    lambda __: connect(server.address, name="twin"),
                    range(16),
                )
            )
        try:
            assert len({bus.session for bus in clients}) == 16
            assert all(bus.ping() == "pong" for bus in clients)
        finally:
            for bus in clients:
                bus.close()


# ---------------------------------------------------------------------------
# session resume: in-flight claims survive the bounce
# ---------------------------------------------------------------------------


def test_resume_reregisters_in_flight_claims(tmp_path):
    durable = str(tmp_path / "broker")
    with BusServerThread(durable_dir=durable, name="d") as server:
        address = server.address
        bus = connect(address, name="consumer")
        bus.send("work", {"n": 1})
        msg_id, __ = bus.receive("work")
        assert bus.in_flight() == [("work", msg_id)]

    try:
        # recovery cleared the (volatile) reservation: without resume
        # the message would be redelivered to anyone who polls first
        with BusServerThread(durable_dir=durable, name="d", port=address[1]):
            # any call reconnects; the client detects the new
            # incarnation and resumes its claims before the op runs
            bus.depth("work")
            assert bus.broker_restarts == 1
            with connect(address, name="thief") as other:
                assert other.receive("work") is None  # still reserved
            bus.ack("work", msg_id)
            assert bus.depth("work") == 0
            snap = bus.snapshot()
            assert snap["resumed_total"] == 1
    finally:
        bus.close()


# ---------------------------------------------------------------------------
# a send loop across a SIGKILL bounce
# ---------------------------------------------------------------------------


def test_open_loop_survives_broker_bounce(tmp_path):
    """A paced send loop keeps going when the durable broker is
    SIGKILLed and restarted underneath it: the client reconnects, op-id
    dedup absorbs the replayed send, and every send that returned is in
    the queue exactly once afterwards."""
    import collections
    import threading

    from repro.net import BrokerProcess

    durable = str(tmp_path / "broker")
    holder = {"proc": BrokerProcess(durable_dir=durable, port=0)}
    host, port = holder["proc"].address

    def bounce():
        time.sleep(0.2)
        holder["proc"].kill()
        holder["proc"] = BrokerProcess(durable_dir=durable, port=port)

    bouncer = threading.Thread(target=bounce, daemon=True)
    bouncer.start()
    try:
        admitted = []
        with connect(
            (host, port), name="sender", connect_retries=8
        ) as bus:
            for n in range(120):
                try:
                    bus.send("work", {"n": n})
                    admitted.append(n)
                except ConnectionLost:
                    # outage outlived the reconnect budget: counted as
                    # not admitted, never hung
                    pass
                time.sleep(1 / 300)
        bouncer.join(timeout=10)
        drained = collections.Counter()
        with connect((host, port), name="control") as control:
            assert control.server_info["epoch"] == 2  # bounced exactly once
            for msg_id, body in drain(control, "work"):
                drained[body["n"]] += 1
                control.ack("work", msg_id)
        # nothing admitted was lost, nothing replayed was double-applied
        assert all(drained[n] == 1 for n in admitted)
        assert set(drained.values()) == {1}
        assert len(admitted) >= 100
    finally:
        bouncer.join(timeout=10)
        holder["proc"].close()


# ---------------------------------------------------------------------------
# heartbeats and reaping (satellite 2)
# ---------------------------------------------------------------------------


def test_idle_connections_are_reaped_heartbeats_survive():
    with BusServerThread(heartbeat_timeout=0.3) as server:
        with connect(
            server.address, name="beater", heartbeat_interval=0.05
        ) as beater, connect(server.address, name="sleeper") as sleeper:
            sleeper.ping()  # frame once, then go silent
            deadline = time.time() + 3.0
            while time.time() < deadline:
                snap = beater.snapshot()
                if snap["reaped_total"] >= 1:
                    break
                time.sleep(0.05)
            assert snap["reaped_total"] == 1
            names = [row["name"] for row in snap["connections"]]
            assert "beater" in names
            assert "sleeper" not in names
            assert beater.heartbeats >= 1
            # the reaped client was not killed, only disconnected: its
            # next call transparently reconnects
            assert sleeper.ping() == "pong"
            assert sleeper.reconnects == 1


def test_half_open_connection_that_never_speaks_is_reaped():
    """A peer that connects and dies before sending any frame must
    still be reaped — the silent-from-birth half-open socket."""
    import socket

    with BusServerThread(heartbeat_timeout=0.3) as server:
        host, port = server.address
        mute = socket.create_connection((host, port))
        try:
            with connect(
                server.address, name="watcher", heartbeat_interval=0.05
            ) as watcher:
                deadline = time.time() + 3.0
                while time.time() < deadline:
                    snap = watcher.snapshot()
                    if snap["reaped_total"] >= 1:
                        break
                    time.sleep(0.05)
                assert snap["reaped_total"] == 1
                assert "watcher" in [
                    row["name"] for row in snap["connections"]
                ]
        finally:
            mute.close()


# ---------------------------------------------------------------------------
# monitor rendering
# ---------------------------------------------------------------------------


def test_monitor_net_view_renders_durability(tmp_path):
    with BusServerThread(
        durable_dir=str(tmp_path / "b"), checkpoint_every=2
    ) as server:
        with connect(server.address, name="producer") as bus:
            for n in range(5):
                bus.send("q", {"n": n})
            text = "\n".join(render_net(bus.snapshot()))
    assert "DURABLE epoch 1" in text
    assert "sync always" in text
    assert "checkpoints" in text
    assert "recovered: checkpoint @0" in text
    assert "dedup hits" in text
    assert "reaped" in text


def test_monitor_net_view_still_renders_volatile_brokers():
    with BusServerThread() as server:
        with connect(server.address, name="producer") as bus:
            bus.send("q", {"n": 1})
            text = "\n".join(render_net(bus.snapshot()))
    assert "DURABLE" not in text
    assert "sessions" in text
