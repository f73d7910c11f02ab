"""Distributed workflow execution over persistent messages.

"Workflow systems are orders of magnitude more heterogeneous and
distributed than databases" (§2).  This module adds the distribution
dimension the paper's group built as Exotica/FMQM: several autonomous
workflow nodes, each running its own engine, cooperating through the
persistent :class:`~repro.wfms.messaging.MessageBus`.

A node *serves* process definitions; another node's process reaches
them through a **remote activity** — an ordinary program activity
whose program (a) sends a durable ``request`` message carrying the
activity's input container the first time it runs and (b) polls for
the matching ``reply`` on later attempts, its exit condition
(``Done = 1``) rescheduling it until the reply arrives.  Requests are
idempotent: the request id is derived from the caller's instance and
activity, the serving node keys its instance on it, and duplicate
requests for a finished instance simply re-send the reply.  That is
what makes the scheme crash-safe end to end:

* requester crash → journal replay reconstructs the polling activity,
  whose next attempt re-sends the (deduplicated) request;
* server crash → its journal replays the request instance, the bus
  redelivers the unacknowledged request, the reply is regenerated;
* lost/unacked messages → redelivered by the bus sweep.

Resilience (:mod:`repro.resilience`) hardens the scheme against
*unrecoverable* counterparts:

* poll attempts are spaced by a logical-clock **poll interval**
  instead of spinning, so :func:`run_cluster` can distinguish "waiting
  on a timer" from "deadlocked";
* a per-request **timeout** bounds the wait for a reply; the budget of
  ``retries`` re-sends the request (redelivery may be all that is
  needed), after which the activity *escalates*: it terminates with a
  failure return code and the caller's own transition conditions route
  control (compensation, alternative path);
* a per-remote-node **circuit breaker** (optional) fails fast while a
  counterpart is known dead instead of paying the timeout every call;
* a **max-deliveries cap** in :meth:`WorkflowNode.pump` routes
  poisoned messages (handler keeps raising) to the bus's dead-letter
  queue instead of redelivering them forever;
* :func:`run_cluster` detects a genuinely stuck cluster — a full
  round with no progress, no due timers, and unfinished watches — and
  raises naming the stuck instances.

When observability is enabled (``WorkflowNode(observability=True)``)
the requesting activity's span context travels in the request's
message *headers* and the serving node starts its instance with that
context as trace parent, so one distributed request/reply chain is one
trace spanning both engines.  The context is also journaled with the
served instance's ``process_started`` record: a server crash + replay
rejoins the same trace, and a redelivered request finds the existing
(request-id-keyed) instance instead of starting a second trace.
Timeout/breaker/dead-letter decisions emit ``RequestTimedOut``,
``BreakerTransition`` and ``MessageDeadLettered`` events plus
counters.

Use :func:`run_cluster` to drive all nodes to quiescence, one
:func:`pump_round` per round.
"""

from __future__ import annotations

from typing import Any

from repro.errors import NavigationError, WorkflowError
from repro.obs import (
    BreakerTransition,
    MessageDeadLettered,
    Observability,
    RequestTimedOut,
    resolve_observability,
)
from repro.resilience.faults import InjectedCrash
from repro.wfms.datatypes import DataType, VariableDecl
from repro.wfms.engine import Engine
from repro.wfms.messaging import MessageBus
from repro.wfms.model import Activity, ProcessDefinition
from repro.wfms.organization import Organization


def _inbox(node_name: str) -> str:
    return "node:%s" % node_name


def _reply_queue(node_name: str) -> str:
    return "replies:%s" % node_name


class WorkflowNode:
    """One engine plus its connection to the message bus.

    Resilience knobs (all deterministic, driven by the engine's
    logical clock):

    * ``max_deliveries`` — attempts a message gets before
      :meth:`pump` dead-letters it instead of redelivering;
    * ``request_timeout`` / ``request_retries`` — default reply budget
      for remote activities (per-activity overrides on
      :meth:`remote_activity`); ``None`` waits forever (pre-resilience
      behaviour);
    * ``poll_interval`` — logical seconds between reply polls;
    * ``breaker_factory`` — zero-argument callable building one
      :class:`~repro.resilience.policies.CircuitBreaker` per remote
      node, or ``None`` for no breaker;
    * ``route`` — ``(target, request_id) -> node name`` resolving a
      remote activity's target once per request (sharding maps
      :data:`~repro.wfms.sharding.ANY_SHARD` to the owning shard);
    * ``fault_injector`` — a
      :class:`~repro.resilience.faults.FaultInjector` threaded into
      the engine (program/journal faults) and consulted by
      :meth:`pump` (forced node crashes);
    * ``store_factory`` — zero-argument callable building a fresh
      :class:`~repro.store.DurableStore` over this node's store
      directory (checkpointed recovery + finished-instance archive);
      mutually exclusive with ``journal_path``; :meth:`rebuild` builds
      a new store over the same files.
    """

    def __init__(
        self,
        name: str,
        bus: MessageBus,
        *,
        journal_path: str | None = None,
        organization: Organization | None = None,
        observability: Observability | bool | None = None,
        max_deliveries: int = 5,
        request_timeout: float | None = None,
        request_retries: int = 0,
        poll_interval: float = 1.0,
        breaker_factory=None,
        fault_injector=None,
        store_factory=None,
        route=None,
    ):
        if not name:
            raise WorkflowError("node name must be non-empty")
        if max_deliveries < 1:
            raise WorkflowError("max_deliveries must be >= 1")
        if poll_interval < 0:
            raise WorkflowError("poll_interval must be >= 0")
        if store_factory is not None and journal_path is not None:
            raise WorkflowError(
                "store_factory and journal_path are mutually exclusive"
            )
        self.name = name
        self.bus = bus
        self._journal_path = journal_path
        #: zero-argument callable building a fresh DurableStore over the
        #: node's store directory; each engine (initial and every
        #: rebuild) gets its own store object over the same files.
        self._store_factory = store_factory
        self._organization = organization
        self._max_deliveries = max_deliveries
        self._request_timeout = request_timeout
        self._request_retries = request_retries
        self._poll_interval = poll_interval
        self._breaker_factory = breaker_factory
        self._injector = fault_injector
        self._route = route or (lambda target, request_id: target)
        # Resolved once and reused by rebuild(), so counters and spans
        # accumulate across this node's crash/recover cycles.
        self.obs = resolve_observability(observability)
        self.engine = Engine(
            journal_path=journal_path,
            organization=organization,
            observability=self.obs,
            fault_injector=fault_injector,
            store=store_factory() if store_factory is not None else None,
        )
        self._served: set[str] = set()
        #: request_id -> full reply body (volatile reply cache).
        self._replies: dict[str, dict[str, Any]] = {}
        #: request_id -> [sent_at_clock, retries_left] for requests in
        #: flight (volatile; resent after a crash, deduplicated by the
        #: server).
        self._requested: dict[str, list] = {}
        #: request_id -> (reply_to, request headers) for requests being
        #: served but not yet finished (volatile; duplicates re-register
        #: it after a crash).
        self._pending: dict[str, tuple[str, dict[str, str]]] = {}
        #: remote node -> CircuitBreaker (volatile, breaker_factory).
        self._breakers: dict[str, Any] = {}
        self._breaker_seen: dict[str, int] = {}
        metrics = self.obs.metrics
        self._c_remote_timeouts = metrics.counter(
            "wfms_remote_timeouts_total",
            "Remote requests that exceeded their reply budget",
            labels=("action",),
        )
        self._c_breaker = metrics.counter(
            "wfms_breaker_transitions_total",
            "Circuit breaker state transitions",
            labels=("state",),
        )
        self._c_dead_lettered = metrics.counter(
            "wfms_messages_dead_lettered_total",
            "Poisoned messages routed to dead-letter queues",
        )

    # -- serving ---------------------------------------------------------

    def serve(self, definition: ProcessDefinition) -> None:
        """Make ``definition`` executable on behalf of other nodes."""
        if definition.name not in self.engine.definitions():
            self.engine.register_definition(definition)
        self._served.add(definition.name)

    def remote_activity(
        self,
        activity_name: str,
        *,
        process: str,
        node: str,
        input_spec: list[VariableDecl] | None = None,
        output_spec: list[VariableDecl] | None = None,
        max_poll_attempts: int = 100_000,
        timeout: float | None = None,
        retries: int | None = None,
        poll_interval: float | None = None,
        escalate_rc: int = 1,
    ) -> Activity:
        """Build an activity that executes ``process`` on ``node``.

        ``input_spec`` members are shipped as the remote process's
        input; ``output_spec`` members are filled from its output.
        Register the returned activity in a local definition as usual.

        ``timeout``/``retries``/``poll_interval`` override the node's
        request defaults for this activity; on a timed-out request the
        budget of ``retries`` re-sends are spent first, then the
        activity terminates with ``escalate_rc`` (and ``Done = 1``) so
        the caller's transition conditions take over.
        """
        inputs = list(input_spec or [])
        outputs = list(output_spec or [])
        program_name = "remote__%s__%s" % (node, process)
        self.engine.register_program(
            program_name,
            self._make_remote_program(
                node,
                process,
                inputs,
                outputs,
                timeout if timeout is not None else self._request_timeout,
                retries if retries is not None else self._request_retries,
                escalate_rc,
            ),
            "remote execution of %s on %s" % (process, node),
            replace=True,
        )
        self.engine.set_reschedule_delay(
            program_name,
            poll_interval if poll_interval is not None else self._poll_interval,
        )
        return Activity(
            activity_name,
            program=program_name,
            input_spec=inputs,
            output_spec=outputs + [VariableDecl("Done", DataType.LONG)],
            exit_condition="Done = 1",
            max_iterations=max_poll_attempts,
            description="remote %s @ %s" % (process, node),
        )

    def _make_remote_program(
        self, node, process, inputs, outputs, timeout, retries, escalate_rc
    ):
        def program(ctx) -> int:
            request_id = "%s/%s/%s" % (self.name, ctx.instance_id, ctx.activity)
            target = self._route(node, request_id)
            now = self.engine.clock
            reply = self._replies.pop(request_id, None)
            if reply is not None:
                self._requested.pop(request_id, None)
                breaker = self._breakers.get(target)
                if reply.get("state") == "error":
                    # The server could not produce the result (served
                    # instance lost); treat like a timed-out request.
                    if breaker is not None:
                        breaker.record_failure(now)
                        self._note_breaker(target, breaker)
                    ctx.output.set("Done", 1)
                    return escalate_rc
                if breaker is not None:
                    breaker.record_success(now)
                    self._note_breaker(target, breaker)
                output = reply.get("output", {})
                for decl in outputs:
                    if decl.name in output:
                        ctx.output.set(decl.name, output[decl.name])
                ctx.output.set("Done", 1)
                return 0
            state = self._requested.get(request_id)
            if state is None:
                breaker = self._breaker_for(target)
                if breaker is not None and not breaker.allow(now):
                    # Open breaker: fail fast instead of paying the
                    # timeout against a known-dead counterpart.
                    self._note_breaker(target, breaker)
                    ctx.output.set("Done", 1)
                    return escalate_rc
                self._send_request(ctx, request_id, target, process, inputs)
                self._requested[request_id] = [now, retries]
            elif timeout is not None and now - state[0] >= timeout:
                breaker = self._breakers.get(target)
                if breaker is not None:
                    breaker.record_failure(now)
                    self._note_breaker(target, breaker)
                if state[1] > 0:
                    # Spend one re-send from the budget: the original
                    # request (or its reply) may simply be lost.
                    state[0] = now
                    state[1] -= 1
                    self._send_request(ctx, request_id, target, process, inputs)
                    self._note_timeout(target, request_id, "resent", now)
                else:
                    self._requested.pop(request_id, None)
                    self._note_timeout(target, request_id, "escalated", now)
                    ctx.output.set("Done", 1)
                    return escalate_rc
            ctx.output.set("Done", 0)
            return 0

        return program

    def _send_request(self, ctx, request_id, node, process, inputs) -> None:
        self.bus.send(
            _inbox(node),
            {
                "type": "request",
                "request_id": request_id,
                "process": process,
                "input": {
                    decl.name: ctx.input.get(decl.name) for decl in inputs
                },
                "reply_to": _reply_queue(self.name),
            },
            # Trace context of the requesting activity rides in the
            # headers; {} when observability is off.
            headers=self.engine.navigator.trace_headers(
                ctx.instance_id, ctx.activity
            ),
        )

    def _breaker_for(self, node: str):
        if self._breaker_factory is None:
            return None
        breaker = self._breakers.get(node)
        if breaker is None:
            breaker = self._breakers[node] = self._breaker_factory()
        return breaker

    def _note_breaker(self, remote: str, breaker) -> None:
        seen = self._breaker_seen.get(remote, 0)
        transitions = breaker.transitions
        if len(transitions) <= seen:
            return
        fresh = transitions[seen:]
        self._breaker_seen[remote] = len(transitions)
        if self.obs.enabled:
            hooks = self.obs.hooks
            for state, at in fresh:
                self._c_breaker.labels(state).inc()
                if hooks.wants(BreakerTransition):
                    hooks.publish(
                        BreakerTransition(self.name, remote, state, at)
                    )

    def _note_timeout(
        self, remote: str, request_id: str, action: str, now: float
    ) -> None:
        if self.obs.enabled:
            self._c_remote_timeouts.labels(action).inc()
            hooks = self.obs.hooks
            if hooks.wants(RequestTimedOut):
                hooks.publish(
                    RequestTimedOut(self.name, remote, request_id, action, now)
                )

    # -- message processing ---------------------------------------------------

    def pump(self, max_messages: int = 10) -> int:
        """Process up to ``max_messages`` inbound messages and send
        replies for served requests that have finished; returns how
        many messages/replies were handled."""
        if self._injector is not None and self._injector.on_pump(self.name):
            self.crash()
            raise InjectedCrash(
                "node %s crashed (injected fault)" % self.name
            )
        handled = 0
        for __ in range(max_messages):
            if self._pump_one(_inbox(self.name), self._handle_request):
                handled += 1
                continue
            if self._pump_one(
                _reply_queue(self.name), self._handle_reply
            ):
                handled += 1
                continue
            break
        handled += self._flush_pending()
        return handled

    def _flush_pending(self) -> int:
        sent = 0
        for request_id in list(self._pending):
            instance_id = "req/%s" % request_id
            try:
                # Archive-aware lookup: a store-backed node moves a
                # finished served instance to the archive, which must
                # read as "finished", not "lost".
                state = self.engine.instance_state(instance_id)
            except NavigationError:
                # The served instance is gone (e.g. the engine was
                # rebuilt from a journal that never recorded the
                # start).  Holding the entry would leak it forever and
                # leave the requester polling: answer with an error
                # reply so its timeout/escalation machinery (or the
                # error branch of the poll program) takes over.
                reply_to, headers = self._pending.pop(request_id)
                self.bus.send(
                    reply_to,
                    {
                        "type": "reply",
                        "request_id": request_id,
                        "state": "error",
                        "error": "node %s lost instance %s"
                        % (self.name, instance_id),
                        "output": {},
                    },
                    headers=headers,
                )
                sent += 1
                continue
            if state != "finished":
                continue
            reply_to, headers = self._pending.pop(request_id)
            self.bus.send(
                reply_to,
                {
                    "type": "reply",
                    "request_id": request_id,
                    "output": self.engine.output(instance_id),
                    "state": state,
                },
                headers=headers,  # echo the request's trace context
            )
            sent += 1
        return sent

    def _pump_one(self, queue: str, handler) -> bool:
        message = self.bus.receive_with_headers(queue)
        if message is None:
            return False
        msg_id, body, headers = message
        try:
            handler(body, headers)
        except Exception as exc:
            if self.bus.deliveries(queue, msg_id) >= self._max_deliveries:
                # Poisoned message: every delivery fails.  Park it on
                # the dead-letter queue (inspectable, replayable by an
                # operator) instead of wedging the pump forever.
                reason = "%s: %s" % (type(exc).__name__, exc)
                deliveries = self.bus.deliveries(queue, msg_id)
                self.bus.dead_letter(queue, msg_id, reason)
                if self.obs.enabled:
                    self._c_dead_lettered.inc()
                    hooks = self.obs.hooks
                    if hooks.wants(MessageDeadLettered):
                        hooks.publish(
                            MessageDeadLettered(
                                queue, msg_id, reason, deliveries
                            )
                        )
                return True
            self.bus.nack(queue, msg_id)
            raise
        self.bus.ack(queue, msg_id)
        return True

    def _handle_request(
        self, body: dict[str, Any], headers: dict[str, str]
    ) -> None:
        process = body["process"]
        request_id = body["request_id"]
        if process not in self._served:
            raise WorkflowError(
                "node %s does not serve process %r" % (self.name, process)
            )
        instance_id = "req/%s" % request_id
        try:
            # Archive-aware: a duplicate request for an already-archived
            # instance must re-send its reply, not restart it.
            self.engine.instance_state(instance_id)
        except NavigationError:
            self.engine.verify_executable(process)
            # The served instance joins the requester's trace via the
            # message headers.  A redelivered request never reaches
            # this branch (the instance exists), so it cannot start a
            # second trace.
            self.engine.navigator.start_process(
                process,
                body.get("input", {}),
                instance_id=instance_id,
                trace_parent=headers or None,
            )
        # Serve asynchronously: the instance advances through the
        # node's normal stepping (it may itself contain remote
        # activities); the reply goes out from _flush_pending once the
        # instance finishes.  Duplicate requests re-register here, so
        # replies are regenerated after a crash.
        self._pending[request_id] = (body["reply_to"], headers)

    def _handle_reply(
        self, body: dict[str, Any], headers: dict[str, str]
    ) -> None:
        self._replies[body["request_id"]] = dict(body)

    # -- crash / recovery --------------------------------------------------------

    def crash(self) -> None:
        """Lose the engine and every volatile structure; keep the bus
        and the journal."""
        if not self.engine.crashed:
            self.engine.crash()
        self._replies.clear()
        self._requested.clear()
        self._pending.clear()
        self._breakers.clear()
        self._breaker_seen.clear()
        self.bus.recover_in_flight(_inbox(self.name))
        self.bus.recover_in_flight(_reply_queue(self.name))

    def rebuild(self, configure) -> None:
        """Build a fresh engine over the same journal and recover.

        ``configure(node)`` must re-register definitions, programs and
        remote activities (their programs), then the journal replays.
        """
        if self._journal_path is None and self._store_factory is None:
            raise WorkflowError(
                "rebuild requires a journal- or store-backed node"
            )
        self.engine = Engine(
            journal_path=self._journal_path,
            organization=self._organization,
            observability=self.obs,
            fault_injector=self._injector,
            store=(
                self._store_factory()
                if self._store_factory is not None
                else None
            ),
        )
        served = self._served
        self._served = set()
        configure(self)
        self._served |= served
        self.engine.recover()


def pump_round(
    nodes: list[WorkflowNode], *, steps_per_round: int, rng=None
) -> bool:
    """One round: each live node gets up to ``steps_per_round``
    engine steps and one message pump; True when any progressed.

    Nodes are visited in list order, or with ``rng`` in the order of
    one ``rng.shuffle(list(range(len(nodes))))`` draw, taken before
    crashed nodes are skipped so a crash never shifts later draws.  An
    injected crash propagates; the RNG is not rewound, so recovering
    the node and pumping on stays replayable.
    """
    if rng is not None:
        order = list(range(len(nodes)))
        rng.shuffle(order)
        nodes = [nodes[index] for index in order]
    progressed = False
    for node in nodes:
        if node.engine.crashed:
            continue
        for __ in range(steps_per_round):
            if not node.engine.step():
                break
            progressed = True
        if node.pump():
            progressed = True
    return progressed


def run_cluster(
    nodes: list[WorkflowNode],
    *,
    watch: list[tuple[WorkflowNode, str]] | None = None,
    max_rounds: int = 10_000,
    steps_per_round: int = 50,
    rng=None,
) -> int:
    """Drive every node until the watched instances finish (or, with no
    watch list, until the whole cluster quiesces).  Returns rounds.

    Each round is one :func:`pump_round` (``rng`` seeds its visit
    order); crashed engines are skipped (the driver decides when to
    ``rebuild``).  A round with no progress first lets logical time
    pass — each node's clock advances to its earliest due timer (retry
    backoff, poll interval), releasing that work.  When nothing
    progressed, no timers remain, and watched instances are still
    unfinished, the cluster is genuinely stuck (e.g. a watched
    counterpart crashed and was never rebuilt): a
    :class:`~repro.errors.WorkflowError` names the stuck instances
    instead of silently burning the remaining rounds.
    """
    for round_number in range(1, max_rounds + 1):
        progressed = pump_round(
            nodes, steps_per_round=steps_per_round, rng=rng
        )
        if watch is not None and all(
            _watch_state(node, instance_id) == "finished"
            for node, instance_id in watch
        ):
            return round_number
        if not progressed and not _advance_to_timers(nodes):
            if watch is None:
                return round_number
            stuck = [
                "%s on %s (%s)"
                % (instance_id, node.name, _watch_state(node, instance_id))
                for node, instance_id in watch
                if _watch_state(node, instance_id) != "finished"
            ]
            raise WorkflowError(
                "cluster deadlocked: no node can make progress and no "
                "timers are due; stuck instances: %s" % "; ".join(stuck)
            )
    raise WorkflowError(
        "cluster did not converge within %d rounds" % max_rounds
    )


def _watch_state(node: WorkflowNode, instance_id: str) -> str:
    if node.engine.crashed:
        return "crashed"
    try:
        return node.engine.instance_state(instance_id)
    except NavigationError:
        return "unknown"


def _advance_to_timers(nodes: list[WorkflowNode]) -> bool:
    """Advance each live node's clock to its earliest delayed due
    time; True when at least one timer was released."""
    advanced = False
    for node in nodes:
        if node.engine.crashed:
            continue
        due = node.engine.navigator.next_delayed_due()
        if due is not None:
            node.engine.advance_clock(max(0.0, due - node.engine.clock))
            advanced = True
    return advanced
