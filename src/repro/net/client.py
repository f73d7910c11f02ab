"""SocketBus: the MessageBus interface over a TCP connection.

A :class:`SocketBus` is a drop-in bus for everything that takes one —
:class:`~repro.wfms.distributed.WorkflowNode`, the sharded engine's
drivers, the workload demos.  Each method is one request/reply
round-trip to the broker (:class:`repro.net.server.BusServer`): the
call blocks, the broker applies the operation to the authoritative
in-memory bus, and the reply carries the same value the in-memory
method would have returned — including the same typed errors
(``unknown message`` acks, empty-queue ``None``\\ s), so caller code
and its tests cannot tell the transports apart.

The client is a plain blocking socket — no event loop.  The public
surface is synchronous (the workflow engine is synchronous by design —
determinism before concurrency), every blocking-socket call is
documented thread-safe, and a lock serializing callers (including the
heartbeat thread) guarantees at most one request in flight per
client.
That single-outstanding-request discipline is what makes multi-process
chaos runs replayable: the broker serves frames in arrival order, and
arrival order equals the driver's issue order.

Failure handling:

* every request is stamped with a unique, monotonic **op id**
  (``session#seq``).  Connection loss (including injected
  ``net.connection``/``net.reply`` resets) is retried transparently —
  reconnect with exponential backoff, replay the pending request
  *with the same op id* — and the broker's per-session dedup table
  guarantees a replayed request that already applied returns its
  cached reply instead of applying twice.  After ``connect_retries``
  consecutive failures the call raises :class:`~repro.errors.
  ConnectionLost`; the request stays pending and
  :meth:`retry_pending` re-issues it (same op id) once the caller has
  e.g. restarted the broker;
* the client tracks which messages it holds **in flight**.  The hello
  reply carries the broker's ``instance`` token; when a reconnect
  lands on a *different* incarnation (a restarted durable broker,
  whose recovery cleared all in-flight reservations), the client
  first replays a ``resume`` op re-registering its claims, then
  replays the pending request;
* typed broker rejections come back as the matching exception —
  ``overflow`` as :class:`~repro.errors.QueueOverflow` (the message is
  in the DLQ), ``shed`` as :class:`~repro.errors.LoadShedded`
  (nothing was stored), anything else as :class:`~repro.errors.
  NetError` carrying the broker's message;
* an optional **heartbeat** thread pings the broker every
  ``heartbeat_interval`` seconds while the client is otherwise idle,
  so a broker configured with ``heartbeat_timeout`` never reaps a
  live-but-quiet client.
"""

from __future__ import annotations

import itertools
import socket
import threading
import time
from typing import Any

from repro.errors import ConnectionLost, LoadShedded, NetError, QueueOverflow
from repro.net.frames import FrameDecoder, decode_envelope, encode_frame


class SocketBus:
    """A synchronous bus proxy over one broker TCP connection.

    ``connect_retries``/``backoff``/``max_backoff`` govern both the
    initial connect and every reconnect; ``timeout`` bounds a single
    request/reply round-trip.  ``heartbeat_interval`` (seconds,
    ``None`` disables) starts a daemon thread pinging the broker while
    the client is idle.  Use as a context manager or ``close()``
    explicitly.
    """

    #: process-wide session nonce: two clients sharing a ``name`` must
    #: not share an op-id namespace on the broker's dedup table.
    #: ``itertools.count`` hands out values atomically, so clients
    #: constructed concurrently from different threads can never draw
    #: the same nonce.
    _session_seq = itertools.count(1)

    def __init__(
        self,
        host: str,
        port: int,
        *,
        name: str = "client",
        connect_retries: int = 12,
        backoff: float = 0.05,
        max_backoff: float = 1.0,
        timeout: float = 30.0,
        heartbeat_interval: float | None = None,
        resume_in_flight: bool = True,
    ):
        self._host = host
        self._port = port
        self.name = name
        self._connect_retries = max(1, connect_retries)
        self._backoff = backoff
        self._max_backoff = max_backoff
        self._timeout = timeout
        self._sock: socket.socket | None = None
        self._decoder = FrameDecoder()
        self._closed = False
        #: this client's op-id namespace on the broker.
        self.session = "%s@%d" % (name, next(SocketBus._session_seq))
        self._op_seq = 0
        self._pending: dict[str, Any] | None = None
        self._resume_in_flight = resume_in_flight
        #: (queue, msg_id) pairs this client received and has not yet
        #: acked/nacked/dead-lettered — re-registered on broker restart.
        self._in_flight: set[tuple[str, str]] = set()
        self._instance: str | None = None
        #: serializes requests between caller and heartbeat threads
        #: (at most one request in flight per client).
        self._lock = threading.RLock()
        #: consecutive-reconnect accounting, surfaced for tests and
        #: the monitor: total reconnects over the client's life.
        self.reconnects = 0
        #: how many reconnects landed on a different broker
        #: incarnation (i.e. the broker restarted underneath us).
        self.broker_restarts = 0
        self.heartbeats = 0
        self.server_info: dict[str, Any] = {}
        self._hb_stop: threading.Event | None = None
        self._hb_thread: threading.Thread | None = None
        self._connect_initial()
        if heartbeat_interval is not None:
            self._hb_stop = threading.Event()
            self._hb_thread = threading.Thread(
                target=self._heartbeat_loop,
                args=(heartbeat_interval,),
                name="socketbus-heartbeat-%s" % name,
                daemon=True,
            )
            self._hb_thread.start()

    # -- connection management --------------------------------------------

    def _connect_initial(self) -> None:
        failure: Exception | None = None
        for attempt in range(self._connect_retries):
            try:
                self._open()
                return
            except OSError as exc:
                failure = exc
                self._drop_connection()
                time.sleep(self._sleep_for(attempt))
        raise ConnectionLost(
            "could not connect to broker at %s:%d after %d attempts (%s)"
            % (self._host, self._port, self._connect_retries, failure)
        )

    def _sleep_for(self, attempt: int) -> float:
        return min(self._backoff * (2**attempt), self._max_backoff)

    def _open(self) -> None:
        sock = socket.create_connection(
            (self._host, self._port), timeout=self._timeout
        )
        # Request/reply over small frames: never wait out Nagle.
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.settimeout(self._timeout)
        self._sock = sock
        self._decoder = FrameDecoder()
        info = self._roundtrip({"op": "hello", "name": self.name})
        instance = (info or {}).get("instance")
        restarted = (
            self._instance is not None and instance != self._instance
        )
        self._instance = instance
        self.server_info = info
        if restarted:
            # The broker we knew died; this is a new incarnation whose
            # recovery cleared every in-flight reservation.  Re-claim
            # ours before any other consumer can be delivered them.
            self.broker_restarts += 1
            if self._resume_in_flight and self._in_flight:
                self._roundtrip(
                    {
                        "op": "resume",
                        "name": self.name,
                        "in_flight": [
                            list(pair) for pair in sorted(self._in_flight)
                        ],
                    }
                )

    def _drop_connection(self) -> None:
        sock, self._sock = self._sock, None
        self._decoder = FrameDecoder()
        if sock is not None:
            try:
                sock.close()
            except OSError:
                pass

    def _roundtrip(self, request: dict[str, Any]) -> Any:
        """One frame out, one frame in; raises the typed error a
        non-ok reply encodes.  A ``recv``/``sendall`` past ``timeout``
        raises :class:`TimeoutError` (an ``OSError``), which the retry
        loops treat like any other connection failure."""
        assert self._sock is not None
        self._sock.sendall(encode_frame(request))
        frames: list[Any] = []
        while not frames:
            data = self._sock.recv(65536)
            if not data:
                raise ConnectionResetError("broker closed the connection")
            frames = self._decoder.feed(data)
        response = frames[0]
        if not isinstance(response, dict):
            raise NetError("malformed broker response: %r" % (response,))
        if response.get("ok"):
            return response.get("value")
        code = response.get("code", "error")
        message = response.get("error", "broker error")
        if code == "overflow":
            raise QueueOverflow(message, queue=response.get("queue", ""))
        if code == "shed":
            raise LoadShedded(message, queue=response.get("queue", ""))
        raise NetError(message)

    def _issue(self, request: dict[str, Any]) -> Any:
        """Drive one request to a reply, reconnecting and replaying on
        connection failure.  The replayed frame carries the *same op
        id*, so an operation that applied before the drop is answered
        from the broker's dedup table, never applied twice."""
        failure: Exception | None = None
        for attempt in range(self._connect_retries):
            try:
                if self._sock is None:
                    self._open()
                return self._roundtrip(request)
            except OSError as exc:
                failure = exc
                self._drop_connection()
                self.reconnects += 1
                time.sleep(self._sleep_for(attempt))
        raise ConnectionLost(
            "lost broker %s:%d and exhausted %d reconnect attempts (%s)"
            % (self._host, self._port, self._connect_retries, failure)
        )

    def _perform(self, request: dict[str, Any]) -> Any:
        """Issue ``request`` (kept pending until a reply arrives) and
        update the in-flight ledger from the outcome."""
        self._pending = request
        try:
            value = self._issue(request)
        except ConnectionLost:
            # Keep the request pending: the caller may restart the
            # broker and retry_pending() it (same op id — still safe).
            raise
        except NetError:
            # A typed broker reply: the round-trip completed.
            self._pending = None
            raise
        self._pending = None
        self._track(request, value)
        return value

    def _track(self, request: dict[str, Any], value: Any) -> None:
        op = request.get("op")
        if op == "receive":
            if isinstance(value, dict) and value.get("msg_id"):
                self._in_flight.add((request["queue"], value["msg_id"]))
        elif op in ("ack", "nack", "dead_letter"):
            self._in_flight.discard((request["queue"], request["msg_id"]))
        elif op == "recover_in_flight":
            queue = request.get("queue")
            if queue is None:
                self._in_flight.clear()
            else:
                self._in_flight = {
                    pair for pair in self._in_flight if pair[0] != queue
                }

    def _call(self, op: str, **params: Any) -> Any:
        """Issue one operation with a fresh op id."""
        if self._closed:
            raise NetError("SocketBus %r is closed" % self.name)
        request = dict(params)
        request["op"] = op
        self._op_seq += 1
        request["op_id"] = "%s#%d" % (self.session, self._op_seq)
        with self._lock:
            return self._perform(request)

    def retry_pending(self) -> Any:
        """Re-issue the request a :class:`~repro.errors.
        ConnectionLost` left pending — same op id, so it is safe even
        if the lost broker had already applied it.  Chaos drivers call
        this after restarting a durable broker."""
        with self._lock:
            if self._pending is None:
                raise NetError(
                    "SocketBus %r has no pending request to retry" % self.name
                )
            return self._perform(self._pending)

    @property
    def pending_op(self) -> str | None:
        """Operation name of the request a ConnectionLost left pending."""
        return self._pending.get("op") if self._pending else None

    def in_flight(self) -> list[tuple[str, str]]:
        """The (queue, msg_id) pairs this client currently holds."""
        return sorted(self._in_flight)

    # -- heartbeats --------------------------------------------------------

    def _heartbeat_loop(self, interval: float) -> None:
        assert self._hb_stop is not None
        while not self._hb_stop.wait(interval):
            # Never contend with a real call (that *is* liveness), and
            # never touch a pending request awaiting retry_pending().
            if not self._lock.acquire(blocking=False):
                continue
            try:
                if self._closed or self._pending is not None:
                    continue
                try:
                    if self._sock is None:
                        self._open()
                    self._roundtrip({"op": "ping"})
                    self.heartbeats += 1
                except Exception:
                    # Best effort: the next real call reconnects.
                    self._drop_connection()
            finally:
                self._lock.release()

    # -- the MessageBus interface -----------------------------------------

    def send(
        self,
        queue: str,
        body: dict[str, Any],
        headers: dict[str, str] | None = None,
    ) -> str:
        return self._call(
            "send", queue=queue, body=dict(body), headers=dict(headers or {})
        )

    def receive(self, queue: str) -> tuple[str, dict[str, Any]] | None:
        taken = self.receive_with_headers(queue)
        if taken is None:
            return None
        msg_id, body, __ = taken
        return msg_id, body

    def receive_with_headers(
        self, queue: str
    ) -> tuple[str, dict[str, Any], dict[str, str]] | None:
        wire = self._call("receive", queue=queue)
        if wire is None:
            return None
        msg_id, body, headers, __ = decode_envelope(wire)
        return msg_id, body, headers

    def ack(self, queue: str, msg_id: str) -> None:
        self._call("ack", queue=queue, msg_id=msg_id)

    def nack(self, queue: str, msg_id: str) -> None:
        self._call("nack", queue=queue, msg_id=msg_id)

    def dead_letter(self, queue: str, msg_id: str, reason: str) -> str:
        return self._call(
            "dead_letter", queue=queue, msg_id=msg_id, reason=reason
        )

    def recover_in_flight(self, queue: str | None = None) -> int:
        return self._call("recover_in_flight", queue=queue)

    def depth(self, queue: str) -> int:
        return self._call("depth", queue=queue)

    def deliveries(self, queue: str, msg_id: str) -> int:
        return self._call("deliveries", queue=queue, msg_id=msg_id)

    def queues(self) -> list[str]:
        return self._call("queues")

    def stats(self, queue: str | None = None) -> dict[str, Any]:
        return self._call("stats", queue=queue)

    # -- dead-letter operations -------------------------------------------

    def dlq_entries(self, queue: str | None = None) -> list[dict[str, Any]]:
        return self._call("dlq_inspect", queue=queue)

    def dlq_drain(self, queue: str, *, requeue: bool = True) -> int:
        return self._call("dlq_drain", queue=queue, requeue=requeue)

    # -- chaos and monitoring ---------------------------------------------

    def install_injector(self, injector: Any) -> None:
        """Ship an injector's rules and seed to the broker, which
        builds its own :class:`~repro.resilience.faults.FaultInjector`
        over them — the chaos adversary runs *behind* the transport,
        exactly where the in-memory suite puts it."""
        from repro.net.server import _rule_to_wire

        self._call(
            "install_injector",
            rules=[_rule_to_wire(rule) for rule in injector.rules],
            seed=injector.seed,
        )

    def injector_trace(self) -> list[tuple[str, str, str, int]]:
        """The broker-side chaos trace, in the same tuple shape as
        :meth:`FaultInjector.trace` — what multi-process chaos runs
        diff across replays."""
        return [tuple(entry) for entry in self._call("injector_trace")]

    def snapshot(self) -> dict[str, Any]:
        return self._call("snapshot")

    def ping(self) -> str:
        return self._call("ping")

    def shutdown_server(self) -> None:
        self._call("shutdown")

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        if self._closed:
            return
        if self._hb_stop is not None:
            self._hb_stop.set()
            if self._hb_thread is not None:
                self._hb_thread.join(timeout=5)
        with self._lock:
            self._closed = True
            self._drop_connection()

    def __enter__(self) -> "SocketBus":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return "SocketBus(%s:%d, name=%r, %s, reconnects=%d)" % (
            self._host,
            self._port,
            self.name,
            state,
            self.reconnects,
        )
