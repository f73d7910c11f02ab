"""The asyncio broker: authoritative queues behind a socket.

:class:`BusServer` owns the real :class:`~repro.wfms.messaging.
MessageBus`.  Clients (:class:`repro.net.client.SocketBus`) connect
over TCP and speak a boring request/reply protocol of length-prefixed
JSON frames (:mod:`repro.net.frames`): one frame in, one frame out,
each request naming a bus operation (``send``, ``receive``, ``ack``,
``nack``, ``dead_letter``, ``recover_in_flight``, ...).  Because every
queue mutation happens *here*, the whole PR 4 resilience contract
transfers to the network for free:

* an installed :class:`~repro.resilience.faults.FaultInjector` sits
  behind the transport — a ``send`` arriving over a socket runs
  through ``MessageBus.send`` and is dropped/duplicated/delayed by
  exactly the rules (and RNG stream) the in-memory chaos suite uses,
  so seeded schedules stay bit-identical over TCP;
* the ``net.connection`` fault site models the network's own failure
  mode: a firing rule resets the client connection before the frame
  is served, exercising the client's reconnect-with-backoff.

Production admission control (all broker-side, per ``send``):

* **bounded queues** — ``queue_capacity`` (global default) and
  ``capacities`` (per-queue overrides) cap queue depth.  An over-
  capacity send is *nacked*: the message goes straight to the queue's
  dead-letter queue with reason ``queue overflow`` (the existing DLQ
  path — inspectable, replayable) and the sender gets a typed
  ``overflow`` rejection, never a silent drop;
* **breaker-driven load shedding** — with a ``breaker_factory``, each
  queue gets a :class:`~repro.resilience.policies.CircuitBreaker`
  whose failures are overflow rejections and whose clock is the
  admission counter (deterministic, no wall time).  While open, sends
  are rejected up front with a typed ``shed`` reply — the overloaded
  queue is not even probed — and a cooldown later a trial admission
  closes it again.

The server is single-loop asyncio with synchronous op handlers, so
operations apply in frame-arrival order — with clients issuing one
blocking request at a time, that order is the callers' issue order,
which is what keeps multi-process chaos runs replayable.

Durability (``durable_dir``): every state-mutating op is journaled to
a write-ahead :class:`~repro.net.buslog.BusLog` *after* it applied
and *before* the reply frame goes out.  A broker restarted over the
same directory rebuilds queues, DLQ, stats, the id sequence and the
per-session op-id dedup table from checkpoint + log suffix, so an
acknowledged send can never be lost and a request replayed across the
restart can never double-apply.  The ``broker.crash`` fault site
(consulted post-journal, pre-reply — the worst window) and a failing
bus log both kill the broker abruptly: ``os._exit`` in a broker
process (``hard_crash``), an immediate stop-without-replies in a
thread.

Session hygiene: with ``heartbeat_timeout`` set, connections silent
for that long (no frames — well-behaved idle clients send ``ping``
heartbeats) are reaped, so half-open sockets don't pin broker state
forever; ``reaped_total`` lands in the monitor NET view.
"""

from __future__ import annotations

import asyncio
import os
from typing import Any

from repro.errors import (
    JournalError,
    LoadShedded,
    NetError,
    QueueOverflow,
    RecoveryError,
    WorkflowError,
)
from repro.net.buslog import BusLog
from repro.net.frames import FrameDecoder, FrameError, encode_envelope, encode_frame
from repro.obs import resolve_observability
from repro.wfms.messaging import DLQ_PREFIX, MessageBus

#: Protocol version spoken by this server (2 adds op-id dedup, the
#: ``resume`` op and the instance/epoch restart token in ``hello``).
PROTOCOL = 2


class _BrokerDied(BaseException):
    """Internal control flow for an abrupt broker death (injected
    ``broker.crash`` or a failing bus log).  BaseException-derived so
    no ``except WorkflowError`` handler can accidentally survive it."""


def _session_of(op_id: str) -> str:
    """The client-session prefix of an op id (``session#seq``)."""
    return op_id.rsplit("#", 1)[0]


def _rule_to_wire(rule) -> dict[str, Any]:
    """A FaultRule as JSON-native data (for install_injector over the
    wire and the BrokerProcess config)."""
    return {
        "site": rule.site,
        "action": rule.action,
        "match": rule.match,
        "probability": rule.probability,
        "schedule": sorted(rule.schedule),
        "max_fires": rule.max_fires,
        "delay": rule.delay,
    }


def _rules_from_wire(rows: list[dict[str, Any]]):
    from repro.resilience.faults import FaultRule

    return [
        FaultRule(
            row["site"],
            row.get("action", ""),
            match=row.get("match", "*"),
            probability=row.get("probability", 0.0),
            schedule=frozenset(row.get("schedule", ())),
            max_fires=row.get("max_fires"),
            delay=row.get("delay", 1),
        )
        for row in rows
    ]


class BusServer:
    """One broker: an asyncio TCP server over one authoritative bus.

    ``queue_capacity`` bounds every non-DLQ queue (``None`` keeps the
    legacy unbounded behaviour); ``capacities`` overrides per queue
    name.  ``breaker_factory`` (zero-argument, returning a
    :class:`~repro.resilience.policies.CircuitBreaker`) enables load
    shedding per queue.  ``fault_injector`` is installed on the bus
    (drop/duplicate/delay behind the transport) and consulted at the
    ``net.connection`` site once per received frame, ``net.reply``
    once per served frame, and ``broker.crash`` after apply+journal.

    ``durable_dir`` arms the write-ahead bus log (recovery runs in
    the constructor); ``durable_sync`` / ``checkpoint_every`` /
    ``keep_checkpoints`` forward to :class:`~repro.net.buslog.BusLog`.
    ``heartbeat_timeout`` reaps connections silent for that many
    seconds.  ``session_cap`` bounds the per-session op-id dedup
    table (LRU by op order — deterministic), so client churn cannot
    grow it, or the checkpoints that serialize it, without bound.
    ``hard_crash`` makes a fatal broker death ``os._exit``
    the process (the broker-process configuration — indistinguishable
    from SIGKILL).
    """

    #: process-wide incarnation counter for non-durable instance tokens.
    _incarnations = 0

    def __init__(
        self,
        bus: MessageBus | None = None,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        name: str = "broker",
        queue_capacity: int | None = None,
        capacities: dict[str, int] | None = None,
        breaker_factory=None,
        fault_injector=None,
        observability=None,
        durable_dir: str | None = None,
        durable_sync: str = "always",
        checkpoint_every: int | None = None,
        keep_checkpoints: int = 2,
        heartbeat_timeout: float | None = None,
        session_cap: int = 1024,
        hard_crash: bool = False,
    ):
        if queue_capacity is not None and queue_capacity < 1:
            raise NetError("queue_capacity must be >= 1")
        if session_cap < 1:
            raise NetError("session_cap must be >= 1")
        self.bus = bus if bus is not None else MessageBus()
        self.name = name
        self._host = host
        self._port = port
        self.address: tuple[str, int] | None = None
        self._capacity = queue_capacity
        self._capacities = dict(capacities or {})
        self._breaker_factory = breaker_factory
        self._breakers: dict[str, Any] = {}
        self._admissions = 0
        self._injector = fault_injector
        if fault_injector is not None:
            self.bus.install_injector(fault_injector)
        self._hard_crash = hard_crash
        self.crashed = False
        self._heartbeat_timeout = heartbeat_timeout
        self._reaper_task: Any = None
        self._reaped_total = 0
        self._resumed_total = 0
        self._dedup_hits = 0
        #: latest (op_id, reply) per client session — the idempotency
        #: table a replayed request hits instead of re-applying.
        #: Insertion-ordered LRU, bounded by ``session_cap`` so client
        #: churn cannot grow the table (and every checkpoint
        #: re-serializing it) without bound.  Eviction follows op
        #: order, so same-seed runs evict identically.
        self._sessions: dict[str, dict[str, Any]] = {}
        self._session_cap = session_cap
        self._sessions_evicted = 0
        self._pending_record: dict[str, Any] | None = None
        self._log: BusLog | None = None
        self.recovery: dict[str, Any] | None = None
        epoch = 0
        if durable_dir is not None:
            self._log = BusLog(
                durable_dir,
                sync=durable_sync,
                checkpoint_every=checkpoint_every,
                keep_checkpoints=keep_checkpoints,
                injector=fault_injector,
                obs=observability,
            )
            info = self._log.recover_into(self.bus)
            self._sessions = info.pop("sessions")
            while len(self._sessions) > self._session_cap:
                del self._sessions[next(iter(self._sessions))]
            self.recovery = info
            epoch = self._log.epoch
        self.epoch = epoch
        BusServer._incarnations += 1
        #: restart token clients compare across reconnects: stable for
        #: one broker incarnation, different for the next.  Durable
        #: brokers use the persisted epoch (survives the process);
        #: volatile ones a process-local incarnation id.
        self.instance = (
            "%s#%d" % (name, epoch)
            if self._log is not None
            else "%s#%d.%d" % (name, os.getpid(), BusServer._incarnations)
        )
        self._server: asyncio.AbstractServer | None = None
        self._closing: asyncio.Event | None = None
        self._conn_ids = 0
        self._conn_tasks: set[Any] = set()
        #: live connections: id -> accounting row (the NET view).
        self._connections: dict[int, dict[str, Any]] = {}
        self._accepted_total = 0
        self._resets_total = 0
        self._frames_in_total = 0
        self._frames_out_total = 0
        self.obs = resolve_observability(observability)
        metrics = self.obs.metrics
        self._c_requests = metrics.counter(
            "net_requests_total",
            "Broker requests served, by operation",
            labels=("op",),
        )
        self._c_overflows = metrics.counter(
            "net_overflows_total",
            "Sends nacked at admission (bounded queue full, dead-lettered)",
            labels=("queue",),
        )
        self._c_sheds = metrics.counter(
            "net_sheds_total",
            "Sends rejected by an open admission breaker",
            labels=("queue",),
        )
        self._g_connections = metrics.gauge(
            "net_connections", "Live broker connections"
        )
        self._g_queue_depth = metrics.gauge(
            "net_queue_depth",
            "Broker queue depth after the last touching operation",
            labels=("queue",),
        )
        self._c_bytes = metrics.counter(
            "net_bytes_total",
            "Bytes moved over broker sockets",
            labels=("direction",),
        )

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> tuple[str, int]:
        """Bind and start serving; returns the bound (host, port) —
        with ``port=0`` the OS picks a free one."""
        if self._server is not None:
            raise NetError("server already started")
        self._closing = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_connection, self._host, self._port
        )
        sockets = self._server.sockets or []
        self.address = sockets[0].getsockname()[:2]
        if self._heartbeat_timeout is not None:
            self._reaper_task = asyncio.get_running_loop().create_task(
                self._reap_idle()
            )
        return self.address

    async def stop(self) -> None:
        """Stop accepting and drop every live connection."""
        if self._server is None:
            return
        self._server.close()
        await self._server.wait_closed()
        self._server = None
        if self._reaper_task is not None:
            self._reaper_task.cancel()
            try:
                await self._reaper_task
            except asyncio.CancelledError:
                pass
            self._reaper_task = None
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)
        self._conn_tasks.clear()
        self._connections.clear()
        self._g_connections.set(0)
        if self._log is not None and not self.crashed:
            # Clean shutdown: make the log suffix durable.  A crashed
            # broker already abandoned the log (the disk is the
            # problem, or the crash was the point).
            self._log.close()

    async def _reap_idle(self) -> None:
        """Close connections that went silent for ``heartbeat_timeout``
        seconds — clients missing N heartbeats, or half-open sockets
        whose peer is gone.  The reaped task cleans itself up through
        the normal connection-handler exit path."""
        assert self._heartbeat_timeout is not None
        loop = asyncio.get_running_loop()
        interval = max(self._heartbeat_timeout / 2.0, 0.01)
        while True:
            await asyncio.sleep(interval)
            now = loop.time()
            for row in list(self._connections.values()):
                if row.get("_reaped"):
                    continue
                if now - row["_last_frame"] <= self._heartbeat_timeout:
                    continue
                row["_reaped"] = True
                row["state"] = "reaped"
                self._reaped_total += 1
                try:
                    row["_writer"].close()
                except Exception:
                    pass

    def request_stop(self) -> None:
        """Ask the serve loop to exit (same-loop safe; from another
        thread use ``loop.call_soon_threadsafe``)."""
        if self._closing is not None:
            self._closing.set()

    async def serve_until_stopped(self, on_started=None) -> None:
        """Start, optionally signal readiness, and serve until
        :meth:`request_stop` (e.g. via the ``shutdown`` op)."""
        await self.start()
        if on_started is not None:
            on_started()
        assert self._closing is not None
        await self._closing.wait()
        await self.stop()

    # -- connection handling ----------------------------------------------

    async def _handle_connection(self, reader, writer) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        self._conn_ids += 1
        self._accepted_total += 1
        conn_id = self._conn_ids
        peer = writer.get_extra_info("peername")
        row: dict[str, Any] = {
            "id": conn_id,
            "name": "conn-%d" % conn_id,
            "peer": "%s:%s" % (peer[0], peer[1]) if peer else "?",
            "state": "open",
            "frames_in": 0,
            "frames_out": 0,
            "last_op": "",
            "resets": 0,
            "_writer": writer,
            # Accept time, so a peer that never sends a frame (a
            # half-open socket dead from birth) is still reaped.
            "_last_frame": asyncio.get_running_loop().time(),
        }
        self._connections[conn_id] = row
        self._g_connections.set(len(self._connections))
        decoder = FrameDecoder()
        reset = False
        try:
            while not reset:
                data = await reader.read(65536)
                if not data:
                    break
                self._c_bytes.labels("in").inc(len(data))
                try:
                    requests = decoder.feed(data)
                except FrameError as exc:
                    # Unframeable bytes: answer once, then hang up —
                    # the stream offset is unrecoverable.
                    payload = encode_frame(
                        {"ok": False, "code": "frame", "error": str(exc)}
                    )
                    writer.write(payload)
                    break
                shutdown = False
                for request in requests:
                    self._frames_in_total += 1
                    row["frames_in"] += 1
                    row["_last_frame"] = asyncio.get_running_loop().time()
                    if self._injector is not None and self._injector.on_connection(
                        row["name"]
                    ):
                        # Injected network fault: reset the connection
                        # without serving (or replying to) this frame.
                        row["resets"] += 1
                        self._resets_total += 1
                        reset = True
                        break
                    response, shutdown = self._dispatch(row, request)
                    if self._injector is not None and self._injector.on_reply(
                        row["name"]
                    ):
                        # Injected reply loss: the op *applied* (and
                        # was journaled), the client never hears back.
                        # Its replayed request must hit the op-id
                        # dedup, not re-apply.
                        row["resets"] += 1
                        self._resets_total += 1
                        reset = True
                        break
                    payload = encode_frame(response)
                    self._c_bytes.labels("out").inc(len(payload))
                    self._frames_out_total += 1
                    row["frames_out"] += 1
                    writer.write(payload)
                    if shutdown:
                        break
                await writer.drain()
                if shutdown:
                    self.request_stop()
                    break
        except _BrokerDied:
            self._abrupt_stop()
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        except asyncio.CancelledError:
            pass  # server stop: close the socket, don't propagate
        finally:
            if task is not None:
                self._conn_tasks.discard(task)
            self._connections.pop(conn_id, None)
            self._g_connections.set(len(self._connections))
            try:
                writer.close()
            except Exception:
                pass

    # -- crash path --------------------------------------------------------

    def _die(self, reason: str) -> None:
        """Fatal broker failure: raise the internal control exception
        the connection handler turns into an abrupt stop (or
        ``os._exit`` when ``hard_crash``)."""
        raise _BrokerDied(reason)

    def _abrupt_stop(self) -> None:
        """Die without replying to anyone.  In a broker process this
        is ``os._exit`` — no atexit, no flushes, exactly a SIGKILL; in
        a thread the log is abandoned (its durable prefix stays
        replayable), every connection dropped, and the serve loop
        asked to exit."""
        if self._hard_crash:
            os._exit(137)
        self.crashed = True
        if self._log is not None:
            self._log.abandon()
        for row in list(self._connections.values()):
            try:
                row["_writer"].close()
            except Exception:
                pass
        self.request_stop()

    # -- dispatch ----------------------------------------------------------

    def _dispatch(
        self, conn: dict[str, Any], request: Any
    ) -> tuple[dict[str, Any], bool]:
        if not isinstance(request, dict) or "op" not in request:
            return {"ok": False, "code": "error", "error": "malformed request"}, False
        op = request["op"]
        conn["last_op"] = op
        self._c_requests.labels(op).inc()
        op_id = request.get("op_id")
        session = _session_of(op_id) if op_id else None
        if session is not None:
            cached = self._sessions.get(session)
            if cached is not None and cached.get("op_id") == op_id:
                # The client replayed a request whose reply it never
                # saw (reconnect after a mid-op drop, or a broker
                # restart): return the original outcome, apply
                # nothing.  The session is demonstrably live, so
                # refresh its LRU position.
                del self._sessions[session]
                self._sessions[session] = cached
                self._dedup_hits += 1
                return dict(cached["reply"]), False
        span = None
        if self.obs.tracer.enabled:
            span = self.obs.tracer.start_span(
                "net.%s" % op,
                kind="server",
                attributes={"queue": request.get("queue", "")},
            )
        self._pending_record = None
        try:
            value, shutdown = self._apply(conn, op, request)
            if span is not None:
                span.finish()
            response: dict[str, Any] = {"ok": True, "value": value}
        except QueueOverflow as exc:
            if span is not None:
                span.finish("overflow")
            shutdown = False
            response = {"ok": False, "code": "overflow", "error": str(exc),
                        "queue": exc.queue}
        except LoadShedded as exc:
            if span is not None:
                span.finish("shed")
            shutdown = False
            response = {"ok": False, "code": "shed", "error": str(exc),
                        "queue": exc.queue}
        except WorkflowError as exc:
            if span is not None:
                span.finish("error")
            shutdown = False
            response = {"ok": False, "code": "error", "error": str(exc)}
        record, self._pending_record = self._pending_record, None
        if session is not None:
            # Store the dedup entry *before* journaling: a checkpoint
            # taken below covers the just-appended record, so its
            # session table must already include this op — otherwise a
            # crash between checkpoint and reply recovers a table
            # missing exactly the op the client is about to replay.
            # LRU order: re-insertion moves the session to the back.
            self._sessions.pop(session, None)
            self._sessions[session] = {"op_id": op_id, "reply": response}
            while len(self._sessions) > self._session_cap:
                evicted = next(iter(self._sessions))
                del self._sessions[evicted]
                self._sessions_evicted += 1
        if record is not None and self._log is not None:
            # Journal the applied mutation (with the reply, so
            # recovery rebuilds the dedup table) *before* the reply
            # frame can go out.  A failing bus log is fatal — the
            # broker must not acknowledge what it cannot make durable.
            if session is not None:
                record["client"] = session
                record["op_id"] = op_id
                record["reply"] = response
            try:
                self._log.record(record)
            except JournalError as exc:
                self._die("bus log failed: %s" % exc)
            if self._log.due():
                try:
                    self._log.checkpoint(
                        self.bus.export_state(), self._sessions
                    )
                except (JournalError, RecoveryError):
                    # A torn/aborted checkpoint is survivable: the log
                    # keeps growing and recovery falls back to the
                    # previous snapshot.
                    self._log.checkpoint_failures += 1
        if self._injector is not None and self._injector.on_broker_crash(op):
            # The worst window: applied and journaled, reply unsent.
            self._die("injected broker crash on %r" % op)
        return response, shutdown

    def _apply(
        self, conn: dict[str, Any], op: str, request: dict[str, Any]
    ) -> tuple[Any, bool]:
        bus = self.bus
        if op == "send":
            queue = request.get("queue", "")
            msg_id = self._admit_send(
                queue, request.get("body") or {}, request.get("headers") or {}
            )
            self._g_queue_depth.labels(queue).set(bus.depth(queue))
            return msg_id, False
        if op == "receive":
            queue = request.get("queue", "")
            taken = bus.receive_with_headers(queue)
            if taken is None:
                return None, False
            msg_id, body, headers = taken
            return (
                encode_envelope(
                    msg_id, body, headers, bus.deliveries(queue, msg_id)
                ),
                False,
            )
        if op == "ack":
            queue = request.get("queue", "")
            msg_id = request.get("msg_id", "")
            bus.ack(queue, msg_id)
            self._note({"type": "ack", "queue": queue, "msg_id": msg_id})
            self._g_queue_depth.labels(queue).set(bus.depth(queue))
            return None, False
        if op == "nack":
            queue = request.get("queue", "")
            msg_id = request.get("msg_id", "")
            bus.nack(queue, msg_id)
            self._note({"type": "nack", "queue": queue, "msg_id": msg_id})
            return None, False
        if op == "dead_letter":
            queue = request.get("queue", "")
            msg_id = request.get("msg_id", "")
            reason = request.get("reason", "")
            target = bus.dead_letter(queue, msg_id, reason)
            self._note(
                {
                    "type": "dead_letter",
                    "queue": queue,
                    "msg_id": msg_id,
                    "reason": reason,
                }
            )
            return target, False
        if op == "recover_in_flight":
            queue = request.get("queue")
            recovered = bus.recover_in_flight(queue)
            self._note({"type": "recover_in_flight", "queue": queue})
            return recovered, False
        if op == "resume":
            # Session resume after a broker restart: the consumer
            # re-registers the messages it held in flight, so nobody
            # else is delivered them while it finishes.  Idempotent —
            # unknown or already-reserved ids are skipped.
            resumed = 0
            for pair in request.get("in_flight") or []:
                if (
                    isinstance(pair, (list, tuple))
                    and len(pair) == 2
                    and bus.mark_in_flight(str(pair[0]), str(pair[1]))
                ):
                    resumed += 1
            self._resumed_total += resumed
            return resumed, False
        if op == "depth":
            return bus.depth(request.get("queue", "")), False
        if op == "deliveries":
            return (
                bus.deliveries(
                    request.get("queue", ""), request.get("msg_id", "")
                ),
                False,
            )
        if op == "queues":
            return bus.queues(), False
        if op == "stats":
            return bus.stats(request.get("queue")), False
        if op == "dlq_inspect":
            return bus.dlq_entries(request.get("queue")), False
        if op == "dlq_drain":
            queue = request.get("queue", "")
            requeue = bool(request.get("requeue", True))
            drained = bus.dlq_drain(queue, requeue=requeue)
            if drained:
                self._note(
                    {
                        "type": "dlq_drain",
                        "queue": queue,
                        "requeue": requeue,
                        "drained": drained,
                    }
                )
            return drained, False
        if op == "install_injector":
            from repro.resilience.faults import FaultInjector

            injector = FaultInjector(
                _rules_from_wire(request.get("rules") or []),
                seed=int(request.get("seed", 0)),
            )
            self._injector = injector
            bus.install_injector(injector)
            if self._log is not None:
                self._log.set_injector(injector)
            return None, False
        if op == "injector_trace":
            if self._injector is None:
                return [], False
            return [list(entry) for entry in self._injector.trace()], False
        if op == "snapshot":
            return self.snapshot(), False
        if op == "hello":
            name = request.get("name")
            if name:
                conn["name"] = str(name)
            return {
                "server": self.name,
                "proto": PROTOCOL,
                "instance": self.instance,
                "epoch": self.epoch,
                "durable": self._log is not None,
            }, False
        if op == "ping":
            return "pong", False
        if op == "shutdown":
            return None, True
        raise NetError("unknown operation %r" % op)

    def _note(self, record: dict[str, Any]) -> None:
        """Stage the bus-log record for the operation that just
        applied; ``_dispatch`` journals it (stamped with the client's
        op id and the reply) before the reply frame goes out.  No-op
        without a durable log."""
        if self._log is not None:
            self._pending_record = record

    # -- admission control -------------------------------------------------

    def _capacity_for(self, queue: str) -> int | None:
        override = self._capacities.get(queue)
        return override if override is not None else self._capacity

    def _breaker_for(self, queue: str):
        if self._breaker_factory is None:
            return None
        breaker = self._breakers.get(queue)
        if breaker is None:
            breaker = self._breakers[queue] = self._breaker_factory()
        return breaker

    def _send_journaled(
        self, queue: str, body: dict[str, Any], headers: dict[str, str]
    ) -> str:
        """Send and stage the effect record (what the injector decided
        — the enqueued envelopes — not the request, so recovery replay
        never re-consults the RNG)."""
        msg_id, effect, entries = self.bus.send_detailed(queue, body, headers)
        self._note(
            {
                "type": "send",
                "queue": queue,
                "effect": effect,
                "entries": entries,
            }
        )
        return msg_id

    def _admit_send(
        self, queue: str, body: dict[str, Any], headers: dict[str, str]
    ) -> str:
        """The bounded-queue + breaker admission gate in front of
        ``MessageBus.send``.  DLQ queues are exempt (rejecting a
        rejection would lose it)."""
        if not queue or queue.startswith(DLQ_PREFIX):
            return self._send_journaled(queue, body, headers)
        self._admissions += 1
        now = float(self._admissions)
        breaker = self._breaker_for(queue)
        if breaker is not None and not breaker.allow(now):
            self.bus._stat(queue, "shed")
            self._c_sheds.labels(queue).inc()
            raise LoadShedded(
                "queue %r is shedding load (admission breaker open)" % queue,
                queue=queue,
            )
        capacity = self._capacity_for(queue)
        if capacity is not None and self.bus.depth(queue) >= capacity:
            reason = "queue overflow: depth %d at capacity %d" % (
                self.bus.depth(queue),
                capacity,
            )
            msg_id = self.bus.reject(queue, body, headers, reason)
            self._note(
                {
                    "type": "reject",
                    "queue": queue,
                    "msg_id": msg_id,
                    "body": dict(body),
                    "headers": dict(headers),
                    "reason": reason,
                }
            )
            if breaker is not None:
                breaker.record_failure(now)
            self._c_overflows.labels(queue).inc()
            raise QueueOverflow(
                "queue %r is full (capacity %d); message dead-lettered"
                % (queue, capacity),
                queue=queue,
            )
        if breaker is not None:
            breaker.record_success(now)
        return self._send_journaled(queue, body, headers)

    # -- monitoring --------------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """The NET view: broker identity, per-connection state, queue
        depths with full stat buckets, breaker states, injector
        summary — rendered by ``repro.tools.monitor``'s ``net`` view."""
        queues = {}
        for name in self.bus.queues():
            stats = self.bus.stats(name)
            stats["depth"] = self.bus.depth(name)
            queues[name] = stats
        connections = [
            {k: v for k, v in row.items() if not k.startswith("_")}
            for row in sorted(
                self._connections.values(), key=lambda r: r["id"]
            )
        ]
        injector = None
        if self._injector is not None:
            injector = {
                "rules": len(self._injector.rules),
                "fired": len(self._injector.fired),
            }
        durable = None
        if self._log is not None:
            durable = self._log.status()
            durable["recovery"] = dict(self.recovery or {})
        return {
            "broker": self.name,
            "address": list(self.address) if self.address else None,
            "instance": self.instance,
            "epoch": self.epoch,
            "connections": connections,
            "accepted_total": self._accepted_total,
            "resets_total": self._resets_total,
            "reaped_total": self._reaped_total,
            "resumed_total": self._resumed_total,
            "dedup_hits": self._dedup_hits,
            "sessions": len(self._sessions),
            "session_cap": self._session_cap,
            "sessions_evicted": self._sessions_evicted,
            "frames_in_total": self._frames_in_total,
            "frames_out_total": self._frames_out_total,
            "queue_capacity": self._capacity,
            "capacities": dict(self._capacities),
            "breakers": {
                queue: breaker.state
                for queue, breaker in sorted(self._breakers.items())
            },
            "queues": queues,
            "injector": injector,
            "durable": durable,
        }


# ---------------------------------------------------------------------------
# runners: background thread and OS process
# ---------------------------------------------------------------------------


class BusServerThread:
    """Run a :class:`BusServer` on a daemon thread's event loop.

    The constructor blocks until the server is bound, so ``address``
    is immediately usable.  ``close()`` stops the loop and joins the
    thread; it is idempotent and also runs via context manager exit.
    """

    def __init__(self, server: BusServer | None = None, **server_kwargs):
        import threading

        self.server = server if server is not None else BusServer(**server_kwargs)
        self._loop = asyncio.new_event_loop()
        self._started = threading.Event()
        self._failure: BaseException | None = None
        self._thread = threading.Thread(
            target=self._run, name="repro-net-broker", daemon=True
        )
        self._thread.start()
        if not self._started.wait(timeout=10):
            raise NetError("broker thread did not start within 10s")
        if self._failure is not None:
            raise NetError("broker thread failed: %s" % self._failure)

    def _run(self) -> None:
        asyncio.set_event_loop(self._loop)
        try:
            self._loop.run_until_complete(
                self.server.serve_until_stopped(on_started=self._started.set)
            )
        except BaseException as exc:  # surfaced to the constructor
            self._failure = exc
            self._started.set()
        finally:
            self._loop.close()

    @property
    def address(self) -> tuple[str, int]:
        assert self.server.address is not None
        return self.server.address

    def close(self) -> None:
        if self._thread.is_alive():
            self._loop.call_soon_threadsafe(self.server.request_stop)
            self._thread.join(timeout=10)

    def __enter__(self) -> "BusServerThread":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _broker_main(connection, config: dict[str, Any]) -> None:
    """Entry point of the broker child process: build the bus (and an
    injector from the wire-shaped rules), serve, and report the bound
    address through the pipe."""
    injector = None
    rules = config.get("rules")
    if rules is not None:
        from repro.resilience.faults import FaultInjector

        injector = FaultInjector(
            _rules_from_wire(rules), seed=config.get("seed", 0)
        )
    server = BusServer(
        MessageBus(),
        fault_injector=injector,
        hard_crash=True,
        **config.get("server", {}),
    )

    async def main() -> None:
        await server.serve_until_stopped(
            on_started=lambda: connection.send(server.address)
        )

    try:
        asyncio.run(main())
    except BaseException as exc:
        try:
            connection.send(("error", "%s: %s" % (type(exc).__name__, exc)))
        except Exception:
            pass
    finally:
        connection.close()


class BrokerProcess:
    """A broker in its own OS process (the multi-process chaos and
    broker-bounce configurations).

    ``rules``/``seed`` build a server-side
    :class:`~repro.resilience.faults.FaultInjector` in the child —
    rules are shipped as plain data, so the parent never shares state
    with it; fetch its chaos trace over the wire
    (:meth:`SocketBus.injector_trace`).  ``server_kwargs`` forward to
    :class:`BusServer` (capacities, breaker factory is not picklable —
    use ``queue_capacity``/``capacities`` here and breakers only
    in-process).

    Use as a context manager; exit asks the broker to shut down over
    the wire and falls back to terminating the process.
    """

    def __init__(
        self,
        *,
        rules=None,
        seed: int = 0,
        start_method: str | None = None,
        **server_kwargs,
    ):
        import multiprocessing

        methods = multiprocessing.get_all_start_methods()
        if start_method is None:
            start_method = "fork" if "fork" in methods else methods[0]
        context = multiprocessing.get_context(start_method)
        parent_end, child_end = context.Pipe()
        config: dict[str, Any] = {"server": dict(server_kwargs), "seed": seed}
        if rules is not None:
            config["rules"] = [_rule_to_wire(rule) for rule in rules]
        self._process = context.Process(
            target=_broker_main, args=(child_end, config), daemon=True
        )
        self._process.start()
        child_end.close()
        if not parent_end.poll(15):
            self._process.terminate()
            raise NetError("broker process did not report an address")
        started = parent_end.recv()
        if isinstance(started, tuple) and started and started[0] == "error":
            self._process.join(timeout=5)
            raise NetError("broker process failed: %s" % started[1])
        self.address: tuple[str, int] = tuple(started)
        self._pipe = parent_end

    @property
    def pid(self) -> int | None:
        return self._process.pid

    def alive(self) -> bool:
        return self._process.is_alive()

    def kill(self) -> None:
        """SIGKILL the broker — no shutdown op, no flushes, no
        goodbyes.  The chaos suites use this to model a hard host
        failure; a durable broker restarted over the same directory
        must recover everything the log made durable."""
        if self._process.is_alive():
            self._process.kill()
        self._process.join(timeout=10)

    def wait(self, timeout: float = 10.0) -> None:
        """Join the broker process (e.g. after an injected
        ``broker.crash`` killed it from the inside)."""
        self._process.join(timeout=timeout)

    def close(self) -> None:
        if self._process.is_alive():
            from repro.net.client import SocketBus

            try:
                with SocketBus(
                    *self.address, name="broker-control", connect_retries=2
                ) as control:
                    control.shutdown_server()
            except NetError:
                pass
            self._process.join(timeout=10)
            if self._process.is_alive():
                self._process.terminate()
                self._process.join(timeout=5)
        self._pipe.close()

    def __enter__(self) -> "BrokerProcess":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
