"""The chaos harness: what the seeded chaos suites share.

Every chaos suite runs a scenario under a seeded fault schedule,
drives it to convergence through injected crashes, runs it a second
time from scratch and asserts that both runs returned the same trace.
This module holds the pieces more than one suite needs:

* :func:`replay_twice` — run into ``a/`` and ``b/``, compare, return;
* :func:`converge_engine` and :func:`converge_cluster` — the two crash
  loops (an engine degraded by a ``JournalError``; cluster nodes
  crashed by an ``InjectedCrash``);
* :func:`served`, :func:`normalized_audit` and
  :func:`normalized_broker` — the projections that make two runs
  comparable;
* :class:`DurableBroker`, :func:`connect`, :func:`free_port` and
  :func:`drain` — socket-broker plumbing.

Seeds, fault rules and the scenarios themselves stay in the suites.
"""

from __future__ import annotations

import json
import socket

import pytest

from repro.errors import JournalError, NavigationError
from repro.net import BrokerProcess, SocketBus
from repro.resilience import InjectedCrash
from repro.wfms.distributed import run_cluster


def replay_twice(run, tmp_path):
    """Run the scenario ``run(directory)`` into ``tmp_path/a`` and
    ``tmp_path/b`` from scratch; same seed, so the two returned traces
    must be equal.  Returns the first."""
    first = run(tmp_path / "a")
    assert run(tmp_path / "b") == first
    return first


def converge_engine(build, start):
    """Drain one instance to completion through disk faults.

    ``build()`` makes an engine over the run's durable journal or
    store; ``start(engine)`` starts the instance.  A ``JournalError``
    degrades the engine: rebuild it, ``recover()`` the durable prefix,
    and start again only if the start itself never became durable.
    Returns ``(engine, instance_id)``.
    """
    engine = build()
    iid = None
    for __ in range(50):
        try:
            if iid is None:
                iid = start(engine)
            engine.drain()
            return engine, iid
        except JournalError:
            engine = build()
            engine.recover()
            if iid is not None:
                try:
                    engine.instance_state(iid)
                except NavigationError:
                    iid = None  # the start itself was never durable
    pytest.fail("engine chaos run did not converge")


def converge_cluster(nodes, watch, rebuild, on_crash=None):
    """``run_cluster`` until every watched instance finishes.

    An ``InjectedCrash`` from a node's pump has already crashed that
    node: call ``on_crash()`` (where a suite kills its broker), then
    rebuild each crashed node over its journal with its configure
    function (``rebuild`` is parallel to ``nodes``).
    """
    for __ in range(12):
        try:
            run_cluster(nodes, watch=watch)
            return
        except InjectedCrash:
            if on_crash is not None:
                on_crash()
            for node, configure in zip(nodes, rebuild):
                if node.engine.crashed:
                    node.rebuild(configure)
    pytest.fail("cluster chaos run did not converge")


def served(node):
    """The request instances ``node`` served, sorted — live or
    archived (a finished root leaves live memory for the store's
    archive)."""
    return sorted(
        row["instance"]
        for row in node.engine.process_list(include_archived=True)
        if row["instance"].startswith("req/")
    )


def normalized_audit(engine, uuid):
    """Audit tuples modulo the one legal crash divergence: an attempt
    that was in flight at the crash is journaled as started twice (the
    interrupted start, then the resumed one) — same logical attempt,
    so consecutive duplicate starts collapse.  A finished root's
    records are read from its archived audit slice, which took them
    out of live memory."""
    store = engine.store
    archived = store.archive.audit(uuid) if store is not None else None
    if archived is not None:
        records = [r for r in archived if r["instance_id"] == uuid]
    else:
        records = [r.to_dict() for r in engine.audit.records(uuid)]
    rows = []
    for r in records:
        detail = json.dumps(r["detail"], sort_keys=True)
        row = (r["event"], r["activity"], detail)
        if rows and r["event"] == "activity_started" and rows[-1] == row:
            continue
        rows.append(row)
    return rows


def normalized_broker(snapshot) -> dict:
    """The cross-run comparable slice of a broker snapshot: queue
    stats (minus the documented volatile delivery drift), epoch and
    dedup accounting — no ports, pids, session nonces or paths."""
    queues = {}
    for name, stats in snapshot["queues"].items():
        stats = dict(stats)
        stats.pop("delivered", None)
        stats.pop("redelivered", None)
        queues[name] = stats
    return {
        "queues": queues,
        "epoch": snapshot["epoch"],
        "dedup_hits": snapshot["dedup_hits"],
    }


class DurableBroker:
    """A restartable broker process pinned to one durable directory
    and (after first start) one port."""

    def __init__(self, directory, rules, seed, **server_kwargs):
        self.directory = str(directory)
        self.rules = rules
        self.seed = seed
        self.server_kwargs = server_kwargs
        self.port = 0
        self.proc: BrokerProcess | None = None
        self.bounces = 0

    def start(self) -> None:
        self.proc = BrokerProcess(
            rules=self.rules,
            seed=self.seed,
            durable_dir=self.directory,
            port=self.port,
            **self.server_kwargs,
        )
        self.port = self.proc.address[1]

    def restart_after_crash(self) -> None:
        """The injected ``broker.crash`` killed it from the inside
        (``os._exit(137)``); reap the corpse and start a successor."""
        assert self.proc is not None
        self.proc.wait(10.0)
        assert not self.proc.alive()
        self.start()
        self.bounces += 1

    def kill_and_restart(self) -> None:
        """External SIGKILL — no flushes, no goodbyes — then restart."""
        assert self.proc is not None
        self.proc.kill()
        self.start()
        self.bounces += 1

    def close(self) -> None:
        if self.proc is not None:
            self.proc.close()


def connect(address, **kwargs):
    """A :class:`SocketBus` to ``address`` with a short reconnect
    backoff; ``kwargs`` override any client option."""
    host, port = address
    kwargs.setdefault("connect_retries", 10)
    kwargs.setdefault("backoff", 0.02)
    return SocketBus(host, port, **kwargs)


def free_port():
    """A loopback port nothing listens on now, for a broker that must
    come back on the same port after a restart."""
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def drain(bus, queue):
    """Receive from ``queue`` until it is empty; returns the
    ``(msg_id, body)`` pairs, unacknowledged."""
    rows = []
    while True:
        taken = bus.receive(queue)
        if taken is None:
            return rows
        rows.append(taken)
