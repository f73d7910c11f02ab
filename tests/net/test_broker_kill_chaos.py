"""Broker-kill chaos: SIGKILL the broker mid-traffic, restart it over
the same durable directory, and hold the exactly-once line.

Two families of seeded schedules, every one run twice with
bit-identical logical traces:

* **ledger seeds** — a scripted payment ledger drives the bus while an
  in-process ``broker.crash`` rule ``os._exit(137)``\\ s the broker
  *between journaling an op and replying* (the worst window;
  indistinguishable from SIGKILL).  The driver restarts the broker on
  the same port and ``retry_pending()``\\ s — the replayed op id must
  hit the recovered dedup table, never double-apply.  At the end,
  every payment is accounted for exactly once across acks, live
  queues and the DLQ;
* **saga seeds** — the distributed workflow demo (requester + worker
  saga over real sockets) with a client-side node crash; at the crash
  point the driver ``kill()``\\ s (SIGKILL) the broker, restarts it,
  rebuilds the crashed nodes from their journals, and the saga still
  completes with the request served exactly once.

Why two runs of one seed are bit-identical despite OS processes dying:
all bus traffic is blocking request/reply from a single driver thread,
so every broker incarnation sees the same frame order; the crash rules
are seeded schedules over that order; replay after restart applies
journaled *effects* without consulting any RNG.  Session nonces and
op ids differ between runs, so comparisons use the normalized state
(queues, stats, epoch) and the logical outcome/fault traces.
"""

from __future__ import annotations

import pytest

from repro.errors import ConnectionLost, QueueOverflow
from repro.resilience.faults import FaultInjector, FaultRule, chaos_rules
from repro.store import DurableStore
from repro.workloads.distributed_demo import (
    configure_requester,
    configure_worker,
    make_requester,
    make_worker,
)
from tests.chaos_harness import (
    DurableBroker,
    connect,
    converge_cluster,
    drain,
    normalized_broker,
    replay_twice,
    served,
)

LEDGER_SEEDS = range(4)
SAGA_SEEDS = range(4)


# ---------------------------------------------------------------------------
# ledger seeds: in-flight broker.crash between journal and reply
# ---------------------------------------------------------------------------


def run_ledger(seed, root):
    """One scripted ledger run; returns (outcomes, normalized state,
    accounting, bounces, final-incarnation fault trace)."""
    rules = [
        FaultRule(
            "broker.crash",
            "crash",
            match="send",
            # fire on the first send once the op counter passes the
            # seed-specific threshold — at most once per incarnation,
            # so every send past the threshold kills one broker
            schedule=frozenset(range(2 + seed, 64 + seed)),
            max_fires=1,
        )
    ]
    broker = DurableBroker(
        root / "broker", rules, seed, queue_capacity=4
    )
    broker.start()
    outcomes: list = []
    bus = connect(
        ("127.0.0.1", broker.port), name="ledger", connect_retries=4
    )
    try:

        def step(label, fn, *args):
            """One ledger op, surviving any number of broker deaths:
            on ConnectionLost restart the broker and replay the same
            op id via retry_pending."""
            attempt = 0
            while True:
                try:
                    value = fn(*args) if attempt == 0 else bus.retry_pending()
                except ConnectionLost:
                    attempt += 1
                    if attempt > 8:
                        pytest.fail("ledger seed %d: broker kept dying" % seed)
                    broker.restart_after_crash()
                    outcomes.append(["bounce", broker.bounces])
                    continue
                except QueueOverflow:
                    outcomes.append([label, "overflow"])
                    return None
                outcomes.append([label, value])
                return value

        for n in range(4):
            step("send-%d" % n, bus.send, "pay", {"n": n})
        step("spill", bus.send, "pay", {"n": 4})  # capacity 4 -> DLQ
        taken = step("recv-a", bus.receive, "pay")
        step("ack-a", bus.ack, "pay", taken[0])
        acked = [taken[1]["n"]]
        step("send-5", bus.send, "pay", {"n": 5})
        taken = step("recv-b", bus.receive, "pay")
        step("poison", bus.dead_letter, "pay", taken[0], "audit-hold")
        poisoned = [taken[1]["n"]]
        step("drain", lambda: bus.dlq_drain("pay", requeue=True))

        state = normalized_broker(bus.snapshot())
        trace = bus.injector_trace()

        # exactly-once accounting: every payment 0..5 lands in exactly
        # one of {acked, still queued (incl. requeued DLQ spill/poison)}
        remaining = [body["n"] for __, body in drain(bus, "pay")]
        assert sorted(acked + remaining) == list(range(6)), (
            "ledger seed %d lost or duplicated payments" % seed
        )
        accounting = {
            "acked": acked,
            "poisoned": poisoned,
            "remaining": sorted(remaining),
        }
        assert bus.dlq_entries("pay") == []  # drained, durably
        return outcomes, state, accounting, broker.bounces, trace
    finally:
        bus.close()
        broker.close()


@pytest.mark.parametrize("seed", LEDGER_SEEDS)
def test_ledger_survives_repeated_broker_kills(seed, tmp_path):
    # bit-identical across a second run of the same schedule
    outcomes, state, __, bounces, __ = replay_twice(
        lambda d: run_ledger(seed, d), tmp_path
    )

    # the broker actually died mid-traffic, at least once, and every
    # completed op survived: no payment lost, none double-applied
    assert bounces >= 1
    assert any(entry[0] == "bounce" for entry in outcomes)
    assert state["epoch"] == 1 + bounces
    assert state["dedup_hits"] >= 1  # the interrupted op was replayed
    # 5 direct sends (the spill was rejected at admission) + 2
    # requeued by the drain
    assert state["queues"]["pay"]["sent"] == 7
    assert state["queues"]["pay"]["overflowed"] == 1
    assert state["queues"]["pay"]["dead_lettered"] == 1


# ---------------------------------------------------------------------------
# saga seeds: external SIGKILL at the node-crash point
# ---------------------------------------------------------------------------


def run_saga(seed, directory):
    """One saga run with a broker SIGKILL mid-workflow; returns
    (result, served, crash trace, normalized broker state)."""
    directory.mkdir(parents=True, exist_ok=True)
    crash_injector = FaultInjector(
        [FaultRule("node.pump", "crash", schedule=frozenset({3 + seed % 3}))],
        seed=seed,
    )
    # half the seeds also run bus-level chaos (drop/duplicate real
    # socket sends) on top of the kills
    bus_rules = (
        chaos_rules(drop_p=0.2, duplicate_p=0.2, max_fires=2)
        if seed >= 2
        else None
    )
    broker = DurableBroker(directory / "broker", bus_rules, seed)
    broker.start()
    worker_bus, front_bus, control = (
        connect(("127.0.0.1", broker.port), name=name, connect_retries=6)
        for name in ("worker", "front", "control")
    )
    try:
        worker = make_worker(
            worker_bus,
            store_factory=lambda: DurableStore(directory / "worker"),
            fault_injector=crash_injector,
        )
        front = make_requester(
            front_bus,
            store_factory=lambda: DurableStore(directory / "front"),
            fault_injector=crash_injector,
            request_timeout=5.0,
            request_retries=8,
        )
        iid = front.engine.start_process("Front", {"N": 7})
        # the node crash is the seeded, deterministic instant: SIGKILL
        # the broker once, with the saga's messages in its queues, and
        # restart it
        converge_cluster(
            [worker, front],
            [(front, iid)],
            [configure_worker, configure_requester],
            on_crash=lambda: broker.bounces or broker.kill_and_restart(),
        )
        assert broker.bounces, "the node-crash schedule never fired"
        return (
            front.engine.output(iid)["Result"],
            served(worker),
            crash_injector.trace(),
            normalized_broker(control.snapshot()),
        )
    finally:
        for bus in (worker_bus, front_bus, control):
            bus.close()
        broker.close()


@pytest.mark.parametrize("seed", SAGA_SEEDS)
def test_saga_survives_broker_sigkill(seed, tmp_path):
    result, requests, __, state = replay_twice(
        lambda d: run_saga(seed, d), tmp_path
    )

    # the saga guarantee across a hard broker death: the right answer,
    # served exactly once
    assert result == 15  # 2*7 + 1
    assert requests == ["req/front/pi-0001/CallDouble"]
    assert state["epoch"] == 2  # exactly one kill + restart
