"""Seeded chaos over the real transport, across OS processes.

The acceptance bar for the socket transport: the distributed chaos
assertions (exactly-once service, correct result, replayable fault
schedule) must hold with the broker in **another process** and the
chaos rules applied to **real socket traffic** — and two runs of the
same seed must produce bit-identical logical traces.

Why this is deterministic despite three OS processes: every bus
operation is a blocking request/reply issued from this (single)
driver thread, so the broker receives operations in exactly the order
the driver issues them; the broker-side injector consumes its seeded
RNG in that order.  Node crashes come from a *client-side* injector
(``node.pump`` schedule), which never touches the wire.  The traces
asserted equal are therefore: the broker's drop/duplicate/delay
decisions (fetched over the wire) and the client's crash decisions.
"""

from __future__ import annotations

import pytest

from repro.net import BrokerProcess
from repro.resilience.faults import FaultInjector, FaultRule, chaos_rules
from repro.store import DurableStore
from repro.workloads.distributed_demo import (
    configure_requester,
    configure_worker,
    make_requester,
    make_worker,
)
from tests.chaos_harness import connect, converge_cluster, replay_twice, served

NET_SEEDS = range(4)

#: broker-side rules: drop/duplicate/delay real socket sends — the
#: same mix (and rates) as the in-memory distributed chaos suite.
BUS_RULES = dict(drop_p=0.3, duplicate_p=0.2, delay_p=0.2, max_fires=2)

#: client-side rule: one forced node crash mid-run.
CRASH_RULE = FaultRule("node.pump", "crash", schedule=frozenset({4}))


def run_socket_chaos(seed, directory):
    """One chaos run over a fresh broker process; returns
    (result, served, bus_trace, crash_trace)."""
    directory.mkdir(parents=True, exist_ok=True)
    crash_injector = FaultInjector([CRASH_RULE], seed=seed)
    with BrokerProcess(rules=chaos_rules(**BUS_RULES), seed=seed) as broker:
        address = broker.address
        with connect(address, name="worker") as worker_bus, connect(
            address, name="front"
        ) as front_bus, connect(address, name="control") as control:
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
                request_retries=6,
            )
            iid = front.engine.start_process("Front", {"N": 7})
            converge_cluster(
                [worker, front],
                [(front, iid)],
                [configure_worker, configure_requester],
            )
            return (
                front.engine.output(iid)["Result"],
                served(worker),
                control.injector_trace(),
                crash_injector.trace(),
            )


@pytest.mark.parametrize("seed", NET_SEEDS)
def test_exactly_once_and_replayable_over_real_sockets(seed, tmp_path):
    # bit-identical logical traces across two runs of the same seed
    result, requests, bus_trace, __ = replay_twice(
        lambda d: run_socket_chaos(seed, d), tmp_path
    )

    # the distributed guarantees, now across three OS processes: the
    # right answer, served exactly once, despite injected drops,
    # duplicates, delays and a forced node crash
    assert result == 15  # 2*7 + 1
    assert requests == ["req/front/pi-0001/CallDouble"]

    # the chaos actually happened behind the transport: every seed's
    # broker fired its rules, so a silently disabled injector fails
    assert bus_trace
    assert all(site == "bus.send" for site, *_ in bus_trace)
