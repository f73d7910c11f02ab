"""The navigator: FlowMark's run-time state machine (§3.2).

Responsibilities:

* start process instances and set their starting activities ready,
* execute ready activities (programs, blocks, subprocesses),
* evaluate exit conditions, rescheduling activities whose exit
  condition is false (loops),
* evaluate outgoing control connectors on termination,
* decide start conditions (AND/OR joins) and perform **dead-path
  elimination** — "if an activity will never be executed because its
  start condition evaluates to false, the activity is marked as
  terminated and all the outgoing control connectors from that activity
  are evaluated to false",
* declare a process finished "when all its activities are in the
  terminated state",
* journal every non-deterministic decision, and consume a replay
  cursor instead of invoking programs during forward recovery.

Execution is single-threaded and deterministic: ready automatic
activities are queued and dispatched in (priority, arrival) order.

The ready queue is a binary heap keyed on ``(-priority, arrival_seq)``
with lazy invalidation: slots whose activity left the READY state (or
whose instance stopped RUNNING) stay in the heap and are discarded when
they surface, so a pop is O(log n) amortised instead of the former
O(n) scan.  Re-queueing — loop reschedules, ``resume``, post-replay
deferral — is a fresh arrival, which keeps the dispatch order exactly
"priority first, then first-queued first".

Navigation steps run against the **compiled navigation plan** of each
definition (:mod:`repro.wfms.plan`), obtained from the definition
registry's plan cache: connector adjacency, compiled transition/exit
conditions and container prototypes are all precomputed per template,
so per-step work never rescans the :class:`ProcessDefinition`.

Observability (:mod:`repro.obs`) hangs off the navigator as cached
instruments and two span maps.  Every instrumentation block is gated
on ``self._obs_on`` — a plain bool attribute — so with the default
disabled handle the per-step cost is a handful of attribute reads
(the zero-overhead-when-off guarantee, enforced by the perf gate).
Spans: one per process instance (parented into the creating
activity's span for blocks/subprocesses, or into a remote trace
context carried in message headers), one per activity invocation
*attempt*.  The journal's ``process_started`` record carries the
instance's trace linkage so a recovered engine resumes the same
trace instead of starting a second one.
"""

from __future__ import annotations

import heapq
import time
from typing import Any

from repro.errors import (
    NavigationError,
    ProgramError,
    StaffResolutionError,
    WorkflowError,
)
from repro.wfms.audit import AuditEvent, AuditTrail
from repro.wfms.containers import Container
from repro.wfms.instance import (
    ActivityInstance,
    ActivityState,
    ProcessInstance,
    ProcessState,
    connector_key,
)
from repro.wfms.journal import ReplayCursor
from repro.wfms.model import (
    PROCESS_INPUT,
    ActivityKind,
    ProcessDefinition,
)
from repro.obs import (
    ActivityCompleted,
    ActivityEscalated,
    NavigatorDispatched,
    ProcessFinished,
    RetryScheduled,
    resolve_observability,
)
from repro.obs.tracing import Span, SpanContext
from repro.wfms.organization import Organization
from repro.wfms.plan import NavigationPlan
from repro.wfms.programs import InvocationContext, ProgramRegistry
from repro.wfms.worklist import WorklistManager


def _NULL_RESOLVER(_path: str) -> None:
    """Resolver for activities with no output container (dead paths,
    never-executed activities); hoisted so no per-call lambda is built."""
    return None


class Navigator:
    """Drives all process instances of one engine."""

    def __init__(
        self,
        definitions,
        programs: ProgramRegistry,
        organization: Organization,
        worklists: WorklistManager,
        audit: AuditTrail,
        services: dict[str, Any] | None = None,
        obs=None,
        injector=None,
        store=None,
    ):
        self._definitions = definitions
        self._programs = programs
        self._organization = organization
        self._worklists = worklists
        self._audit = audit
        #: DurableStore (repro.store) or None: its journal records every
        #: decision; it drives post-step checkpointing and finished-root
        #: archiving.
        self._store = store
        self._journal = store.journal if store is not None else None
        self._services = services if services is not None else {}
        self.obs = obs = resolve_observability(obs)
        self._obs_on = obs.enabled
        self._tracer = obs.tracer
        self._hooks = obs.hooks
        metrics = obs.metrics
        self._c_proc_started = metrics.counter(
            "wfms_processes_started_total",
            "Process instances started",
            labels=("definition",),
        )
        self._c_proc_finished = metrics.counter(
            "wfms_processes_finished_total",
            "Process instances finished",
            labels=("definition",),
        )
        self._g_running = metrics.gauge(
            "wfms_instances_running", "Process instances not yet finished"
        )
        self._c_dispatched = metrics.counter(
            "wfms_activities_dispatched_total",
            "Automatic activities popped off the ready queue",
        )
        completions = metrics.counter(
            "wfms_activity_completions_total",
            "Activity completions by outcome",
            labels=("outcome",),
        )
        self._c_terminated = completions.labels("terminated")
        self._c_rescheduled = completions.labels("rescheduled")
        self._c_dead = completions.labels("dead")
        self._c_forced = completions.labels("forced")
        self._h_activity_seconds = metrics.histogram(
            "wfms_activity_seconds",
            "Wall-clock seconds per program invocation",
        )
        self._c_connectors = metrics.counter(
            "wfms_connector_evaluations_total",
            "Control connectors evaluated",
        )
        #: open spans: instance_id -> instance span,
        #: (instance_id, activity) -> current attempt span.
        self._instance_spans: dict[str, Span] = {}
        self._activity_spans: dict[tuple[str, str], Span] = {}
        self._instances: dict[str, ProcessInstance] = {}
        #: secondary indexes kept in lockstep with ``_instances`` so
        #: monitoring queries (``Engine.process_list`` filters) answer
        #: in O(matching) instead of walking every live instance.
        #: state value -> instance ids, definition name -> instance ids.
        self._state_index: dict[str, set[str]] = {}
        self._definition_index: dict[str, set[str]] = {}
        #: ready-queue heap of (-priority, arrival_seq, instance, activity);
        #: stale slots are invalidated lazily in :meth:`_pop_ready`.
        self._ready_heap: list[tuple[int, int, str, str]] = []
        self._arrivals = 0
        self._sequence = 0
        self._replay: ReplayCursor | None = None
        #: work discovered during replay that has no recorded outcome;
        #: it is executed live once replay ends.
        self._deferred: list[tuple[str, str]] = []
        self.clock = 0.0
        # -- resilience (repro.resilience) --------------------------------
        #: fault injector consulted before program invocations, or None.
        self._injector = injector
        #: program name -> RetryPolicy / Timeout / reschedule delay.
        self._retry_policies: dict[str, Any] = {}
        self._timeouts: dict[str, Any] = {}
        self._reschedule_delays: dict[str, float] = {}
        #: (instance, activity) -> consecutive failed invocations.
        self._retries: dict[tuple[str, str], int] = {}
        #: (instance, activity) -> clock at first invocation (timeouts).
        self._started_at: dict[tuple[str, str], float] = {}
        #: min-heap of (due, arrival_seq, instance, activity): READY
        #: slots waiting out a backoff or poll delay; released into the
        #: ready heap by :meth:`release_due` as the clock advances.
        self._delayed: list[tuple[float, int, str, str]] = []
        self._c_retries = metrics.counter(
            "wfms_activity_retries_total",
            "Failed invocations scheduled for retry",
        )
        self._c_escalated = metrics.counter(
            "wfms_activity_escalations_total",
            "Activities finished by policy escalation",
            labels=("reason",),
        )

    # ------------------------------------------------------------------
    # instance management
    # ------------------------------------------------------------------

    def instance(self, instance_id: str) -> ProcessInstance:
        try:
            return self._instances[instance_id]
        except KeyError:
            raise NavigationError(
                "unknown process instance %r" % instance_id
            ) from None

    def instances(self) -> list[ProcessInstance]:
        return list(self._instances.values())

    def live_instance_count(self) -> int:
        return len(self._instances)

    def deep_execution_order(self, instance: ProcessInstance) -> list[str]:
        """Activities in termination order, descending into blocks and
        subprocesses at the point their parent activity terminated
        (a live instance's subtree is live too)."""
        order: list[str] = []
        for name in self._audit.execution_order(instance.instance_id):
            ai = instance.activities.get(name)
            if ai is not None and ai.activity.kind in (
                ActivityKind.BLOCK,
                ActivityKind.PROCESS,
            ):
                child = self._instances.get(ai.child_instance)
                if child is not None:
                    order.extend(self.deep_execution_order(child))
            else:
                order.append(name)
        return order

    def queue_depths(self) -> dict[str, int]:
        """Scheduler queue sizes (heap slots, including stale ones)."""
        return {"ready": len(self._ready_heap), "delayed": len(self._delayed)}

    def instance_ids(
        self, *, state: str | None = None, definition: str | None = None
    ) -> list[str]:
        """Live instance ids, optionally filtered by state value and/or
        definition name via the secondary indexes — O(matching), not
        O(all live instances)."""
        if state is None and definition is None:
            return list(self._instances)
        if state is not None:
            matched = self._state_index.get(state, set())
            if definition is not None:
                matched = matched & self._definition_index.get(
                    definition, set()
                )
        else:
            matched = self._definition_index.get(definition, set())
        return sorted(matched)

    def _index_instance(self, instance: ProcessInstance) -> None:
        self._state_index.setdefault(instance.state.value, set()).add(
            instance.instance_id
        )
        self._definition_index.setdefault(
            instance.definition.name, set()
        ).add(instance.instance_id)

    def _move_state(
        self, instance: ProcessInstance, new_state: ProcessState
    ) -> None:
        """The only way instance.state may change once indexed."""
        ids = self._state_index.get(instance.state.value)
        if ids is not None:
            ids.discard(instance.instance_id)
        instance.state = new_state
        self._state_index.setdefault(new_state.value, set()).add(
            instance.instance_id
        )

    def set_sequence(self, value: int) -> None:
        self._sequence = max(self._sequence, value)

    def start_process(
        self,
        definition_name: str,
        input_values: dict[str, Any] | None = None,
        *,
        starter: str = "",
        instance_id: str = "",
        version: str | None = None,
        trace_parent: "SpanContext | dict[str, str] | None" = None,
    ) -> str:
        """Start a new top-level instance; returns its id.

        ``version`` pins a definition version; the default is the
        latest registered one.  ``trace_parent`` joins an existing
        trace — either a :class:`SpanContext` or the header dict a
        remote node attached to its request — so cross-node work forms
        one trace.
        """
        definition = self._definition(definition_name, version)
        plan = self._definitions.plan_for(definition)
        container = plan.process_input_container()
        if input_values:
            # Type-checked on replay too: a store written before start
            # inputs were checked may hold a mistyped value, and the
            # compiled data flow copies flat values unchecked.
            container.assign(input_values)
        if not instance_id:
            self._sequence += 1
            instance_id = "pi-%04d" % self._sequence
        if trace_parent is not None and not isinstance(
            trace_parent, SpanContext
        ):
            trace_parent = self._tracer.extract(trace_parent)
        return self._create_instance(
            plan,
            instance_id,
            container,
            starter=starter,
            parent_instance="",
            parent_activity="",
            trace_parent=trace_parent,
        )

    def _definition(
        self, name: str, version: str | None = None
    ) -> ProcessDefinition:
        from repro.errors import DefinitionError

        try:
            return self._definitions.get(name, version)
        except DefinitionError as exc:
            raise NavigationError(str(exc)) from exc

    def _create_instance(
        self,
        plan: NavigationPlan,
        instance_id: str,
        input_container: Container,
        *,
        starter: str,
        parent_instance: str,
        parent_activity: str,
        trace_parent: "SpanContext | None" = None,
    ) -> str:
        if instance_id in self._instances:
            raise NavigationError(
                "instance id %r is already in use" % instance_id
            )
        definition = plan.definition
        instance = ProcessInstance(
            instance_id,
            definition,
            starter=starter,
            parent_instance=parent_instance,
            parent_activity=parent_activity,
            plan=plan,
            input_container=input_container,
        )
        self._instances[instance_id] = instance
        self._index_instance(instance)
        span = None
        if self._obs_on:
            self._c_proc_started.labels(definition.name).inc()
            self._g_running.inc()
            if self._tracer.enabled:
                span = self._start_instance_span(
                    instance, parent_instance, parent_activity, trace_parent
                )
        self._audit.record(
            self.clock,
            AuditEvent.PROCESS_STARTED,
            instance_id,
            detail={"definition": definition.name, "starter": starter},
        )
        if self._journal is not None and self._replay is None:
            # The record dict (with its input snapshot) is only built
            # when a journal will actually persist it.
            record = {
                "type": "process_started",
                "instance": instance_id,
                "definition": definition.name,
                "version": definition.version,
                "input": instance.input.to_dict(),
                "starter": starter,
                "parent_instance": parent_instance,
                "parent_activity": parent_activity,
            }
            if span is not None:
                # Trace linkage survives a crash: replay re-parents the
                # recovered instance into the same trace instead of
                # starting a second one.
                record["trace"] = {
                    "trace_id": span.trace_id,
                    "parent_span_id": span.parent_id,
                }
            self._journal.append(record)
        for name in plan.starting:
            self._make_ready(instance, name)
        return instance_id

    def _start_instance_span(
        self,
        instance: ProcessInstance,
        parent_instance: str,
        parent_activity: str,
        trace_parent: "SpanContext | None",
    ) -> Span:
        """Open the instance span: child instances hang under the
        block/subprocess activity span that created them, remote or
        recovered instances under the propagated context."""
        parent: "Span | SpanContext | None" = None
        if parent_instance:
            parent = self._activity_spans.get(
                (parent_instance, parent_activity)
            ) or self._instance_spans.get(parent_instance)
        if parent is None:
            parent = trace_parent
        span = self._tracer.start_span(
            "process %s" % instance.definition.name,
            parent=parent,
            kind="process",
            attributes={
                "instance_id": instance.instance_id,
                "definition": instance.definition.name,
            },
        )
        self._instance_spans[instance.instance_id] = span
        return span

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------

    def step(self) -> bool:
        """Execute one queued automatic activity; False when idle.

        Stale heap slots are discarded inside :meth:`_pop_ready`, so a
        True return always means one activity actually executed.
        """
        slot = self._pop_ready()
        if slot is None:
            return False
        instance_id, activity_name = slot
        instance = self._instances[instance_id]
        ai = instance.activity(activity_name)
        if self._obs_on:
            self._c_dispatched.inc()
            hooks = self._hooks
            if hooks.wants(NavigatorDispatched):
                hooks.publish(
                    NavigatorDispatched(
                        instance_id,
                        activity_name,
                        ai.attempt + 1,
                        ai.activity.priority,
                        self.clock,
                    )
                )
        self._execute(instance, ai)
        if self._store is not None and self._replay is None:
            # Post-step is the store's consistency point: _execute has
            # fully cascaded, so the only RUNNING activities are
            # block/subprocess parents (whose children are captured
            # with them).
            self._store.maybe_checkpoint(self)
        return True

    def run(self, max_steps: int = 1_000_000) -> int:
        """Run until no automatic work remains; returns steps taken.

        Only steps that execute an activity count towards
        ``max_steps`` — stale queue slots (suspended instances, forced
        or killed activities) are skipped for free, so a tight limit
        cannot falsely report non-quiescence on a queue of dead slots.
        """
        steps = 0
        while self.step():
            steps += 1
            if steps >= max_steps and self.has_ready_work():
                raise NavigationError(
                    "navigator did not quiesce within %d steps" % max_steps
                )
        return steps

    def has_ready_work(self) -> bool:
        heap = self._ready_heap
        while heap:
            __, __, instance_id, activity = heap[0]
            if self._is_live_slot(instance_id, activity):
                return True
            heapq.heappop(heap)  # lazily drop the stale slot
        return False

    def _is_live_slot(self, instance_id: str, activity: str) -> bool:
        instance = self._instances.get(instance_id)
        if instance is None or instance.state is not ProcessState.RUNNING:
            return False
        return instance.activity(activity).state is ActivityState.READY

    def _enqueue(self, instance: ProcessInstance, name: str) -> None:
        """Queue an activity for automatic dispatch (a fresh arrival)."""
        self._arrivals += 1
        priority = instance.activity(name).activity.priority
        heapq.heappush(
            self._ready_heap,
            (-priority, self._arrivals, instance.instance_id, name),
        )

    def _pop_ready(self) -> tuple[str, str] | None:
        heap = self._ready_heap
        while heap:
            __, __, instance_id, activity = heapq.heappop(heap)
            if self._is_live_slot(instance_id, activity):
                return instance_id, activity
        return None

    # ------------------------------------------------------------------
    # resilience policies (repro.resilience)
    # ------------------------------------------------------------------

    def set_retry(self, program: str, policy) -> None:
        """Retry failed invocations of ``program`` under ``policy``
        (None removes)."""
        if policy is None:
            self._retry_policies.pop(program, None)
        else:
            self._retry_policies[program] = policy

    def set_timeout(self, program: str, timeout) -> None:
        """Give activities running ``program`` a logical-clock budget;
        expiry escalates with the timeout's return code (None removes)."""
        if timeout is None:
            self._timeouts.pop(program, None)
        else:
            self._timeouts[program] = timeout

    def set_reschedule_delay(self, program: str, delay: float) -> None:
        """Space out exit-condition reschedules of ``program`` by
        ``delay`` logical seconds (polling loops) instead of spinning."""
        if delay < 0:
            raise WorkflowError("reschedule delay must be >= 0")
        if delay == 0:
            self._reschedule_delays.pop(program, None)
        else:
            self._reschedule_delays[program] = delay

    def _defer_ready(
        self, instance: ProcessInstance, name: str, due: float
    ) -> None:
        """Mark READY but park on the delayed heap until ``due``."""
        ai = instance.activity(name)
        ai.state = ActivityState.READY
        self._audit.record(
            self.clock, AuditEvent.ACTIVITY_READY, instance.instance_id, name
        )
        self._arrivals += 1
        heapq.heappush(
            self._delayed, (due, self._arrivals, instance.instance_id, name)
        )

    def release_due(self, now: float) -> int:
        """Move delayed slots whose due time has arrived onto the
        ready heap; returns how many were released."""
        released = 0
        heap = self._delayed
        while heap and heap[0][0] <= now:
            __, __, instance_id, name = heapq.heappop(heap)
            if self._is_live_slot(instance_id, name):
                self._enqueue(self._instances[instance_id], name)
                released += 1
        return released

    def next_delayed_due(self) -> float | None:
        """Due time of the earliest live delayed slot, or None."""
        heap = self._delayed
        while heap:
            due, __, instance_id, name = heap[0]
            if self._is_live_slot(instance_id, name):
                return due
            heapq.heappop(heap)
        return None

    # ------------------------------------------------------------------
    # state transitions
    # ------------------------------------------------------------------

    def _make_ready(self, instance: ProcessInstance, name: str) -> None:
        ai = instance.activity(name)
        ai.state = ActivityState.READY
        self._audit.record(
            self.clock, AuditEvent.ACTIVITY_READY, instance.instance_id, name
        )
        if ai.activity.is_manual and self._replay is None:
            self._offer(instance, ai)
        elif ai.activity.is_manual:
            # During replay, manual completions come from the journal;
            # only re-offer when no recorded completion remains.
            if self._replay.take_peek(instance.instance_id, name, ai.attempt + 1):
                self._enqueue(instance, name)
            else:
                self._offer(instance, ai)
        else:
            self._enqueue(instance, name)

    def _offer(self, instance: ProcessInstance, ai: ActivityInstance) -> None:
        try:
            eligible = self._organization.resolve(
                ai.activity.staff, starter=instance.starter
            )
        except StaffResolutionError:
            if instance.starter:
                raise
            # No organization configured and no starter: run it
            # automatically rather than stall (engines used purely for
            # transaction-model execution have no users).
            self._enqueue(instance, ai.name)
            return
        item = self._worklists.offer(
            instance.instance_id,
            ai.name,
            instance.definition.name,
            eligible,
            self.clock,
            priority=ai.activity.priority,
            notify_after=ai.activity.staff.notify_after,
            notify_role=ai.activity.staff.notify_role,
        )
        self._audit.record(
            self.clock,
            AuditEvent.ITEM_OFFERED,
            instance.instance_id,
            ai.name,
            item=item.item_id,
            eligible=list(eligible),
        )

    def start_manual(self, item_id: str) -> None:
        """Execute the activity behind a *claimed* work item."""
        item = self._worklists.item(item_id)
        if not item.claimed_by:
            raise WorkflowError("work item %s must be claimed first" % item_id)
        instance = self.instance(item.instance_id)
        ai = instance.activity(item.activity)
        if ai.state is not ActivityState.READY:
            raise NavigationError(
                "activity %s is %s, not ready" % (ai.name, ai.state.value)
            )
        ai.claimed_by = item.claimed_by
        self._audit.record(
            self.clock,
            AuditEvent.ITEM_CLAIMED,
            instance.instance_id,
            ai.name,
            item=item_id,
            user=item.claimed_by,
        )
        self._execute(instance, ai, user=item.claimed_by)
        if item.state.value == "claimed":
            self._worklists.complete(item_id)

    def force_finish(
        self,
        instance_id: str,
        activity: str,
        *,
        return_code: int = 0,
        output_values: dict[str, Any] | None = None,
        user: str = "",
    ) -> None:
        """§3.3: a user may "force [an activity] to finish"."""
        instance = self.instance(instance_id)
        ai = instance.activity(activity)
        if ai.state not in (ActivityState.READY, ActivityState.RUNNING):
            raise NavigationError(
                "cannot force-finish %s from state %s"
                % (activity, ai.state.value)
            )
        # A mistyped value raises here, before the activity is touched.
        output = instance.plan.output_container(ai.name)
        if output_values:
            output.assign(output_values)
        output.return_code = return_code
        ai.attempt += 1
        ai.forced = True
        ai.output = output
        self._worklists.withdraw(instance_id, activity)
        self._audit.record(
            self.clock,
            AuditEvent.ACTIVITY_FORCED,
            instance_id,
            activity,
            user=user,
            rc=return_code,
        )
        self._finish(instance, ai, forced=True, user=user)

    def activity_span(self, instance_id: str, activity: str):
        """The live span of a RUNNING activity, or None.

        Services invoked from inside a program (e.g. the flow runtime)
        use it to parent their own spans under the activity's span
        without reaching into navigator internals."""
        return self._activity_spans.get((instance_id, activity))

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------

    def _execute(
        self, instance: ProcessInstance, ai: ActivityInstance, user: str = ""
    ) -> None:
        ai.attempt += 1
        ai.state = ActivityState.RUNNING
        ai.input = self._build_input(instance, ai)
        if self._obs_on and self._tracer.enabled:
            self._activity_spans[
                (instance.instance_id, ai.name)
            ] = self._tracer.start_span(
                "activity %s" % ai.name,
                parent=self._instance_spans.get(instance.instance_id),
                kind=ai.activity.kind.value,
                attributes={
                    "instance_id": instance.instance_id,
                    "attempt": ai.attempt,
                },
            )
        self._audit.record(
            self.clock,
            AuditEvent.ACTIVITY_STARTED,
            instance.instance_id,
            ai.name,
            attempt=ai.attempt,
            user=user,
        )
        if ai.activity.kind is not ActivityKind.PROGRAM:
            if self._replay is not None:
                # A block/subprocess completion is *derived* from its
                # child's execution; consume (and discard) the parent
                # record — replaying the child recomputes it exactly.
                self._replay.take(instance.instance_id, ai.name, ai.attempt)
            self._start_child(instance, ai)
            return
        recorded = None
        if self._replay is not None:
            recorded = self._replay.take(
                instance.instance_id, ai.name, ai.attempt
            )
            if recorded is None:
                # Crash interrupted this execution: the paper's rule is
                # that the activity "will be rescheduled to be executed
                # from the beginning" — defer it to after replay.
                ai.state = ActivityState.READY
                ai.attempt -= 1
                self._deferred.append((instance.instance_id, ai.name))
                span = self._activity_spans.pop(
                    (instance.instance_id, ai.name), None
                )
                if span is not None:
                    span.finish(status="interrupted")
                return
        if recorded is not None:
            ai.forced = bool(recorded.get("forced"))
            ai.output = instance.plan.output_container(ai.name)
            if ai.forced:
                # Forced outputs came from outside the engine: checked
                # again, as start inputs are.
                ai.output.assign(recorded["output"])
            else:
                ai.output.load_dict(recorded["output"])
            self._finish(
                instance,
                ai,
                replayed=True,
                user=recorded.get("user", ""),
                escalated=bool(recorded.get("escalated")),
            )
            return
        self._run_program(instance, ai, user)

    def _build_input(
        self, instance: ProcessInstance, ai: ActivityInstance
    ) -> Container:
        plan = instance.plan
        container = plan.input_container(ai.name)
        for flow in plan.data_into.get(ai.name, ()):
            if flow.source == PROCESS_INPUT:
                source = instance.input
            elif flow.source == ai.name:
                # Loop-carried self connector: feed the previous
                # attempt's output into this attempt's input.  The
                # generic branch below would always skip it — a
                # rescheduled activity is READY/RUNNING, never
                # ``executed`` — so the iteration case reads the
                # retained output directly.  First attempt: nothing
                # to carry yet, keep the declared defaults.
                if ai.attempt <= 1 or ai.output is None:
                    continue
                source = ai.output
            else:
                source_ai = instance.activity(flow.source)
                if not source_ai.executed or source_ai.output is None:
                    continue  # source never ran: leave defaults
                source = source_ai.output
            container.receive(source, flow)
        return container

    def _run_program(
        self, instance: ProcessInstance, ai: ActivityInstance, user: str
    ) -> None:
        assert ai.input is not None
        ai.output = instance.plan.output_container(ai.name)
        ctx = InvocationContext(
            activity=ai.name,
            process=instance.definition.name,
            instance_id=instance.instance_id,
            input=ai.input,
            output=ai.output,
            user=user,
            attempt=ai.attempt,
            services=self._services,
        )
        if self._timeouts and ai.activity.program in self._timeouts:
            self._started_at.setdefault(
                (instance.instance_id, ai.name), self.clock
            )
        try:
            if self._injector is not None:
                self._injector.before_program(
                    instance.instance_id, ai.name, ai.activity.program
                )
            if self._obs_on:
                started = time.perf_counter()
                self._programs.invoke(ai.activity.program, ctx)
                self._h_activity_seconds.observe(time.perf_counter() - started)
            else:
                self._programs.invoke(ai.activity.program, ctx)
        except ProgramError as exc:
            if self._maybe_retry(instance, ai, exc):
                return
            raise
        self._finish(instance, ai, user=user)

    def _maybe_retry(
        self,
        instance: ProcessInstance,
        ai: ActivityInstance,
        exc: ProgramError,
    ) -> bool:
        """Handle a failed invocation under the program's retry policy.

        Returns True when the failure was absorbed — either a retry was
        scheduled, or the policy escalated (the activity finished with
        the escalation return code).  False re-raises the original
        failure (no policy, or exhaustion without an escalation rc).
        """
        policy = self._retry_policies.get(ai.activity.program)
        if policy is None:
            return False
        key = (instance.instance_id, ai.name)
        retry = self._retries.get(key, 0) + 1
        timeout = self._timeouts.get(ai.activity.program)
        started = self._started_at.get(key, self.clock)
        timed_out = timeout is not None and timeout.expired(
            started, self.clock
        )
        if timed_out or not policy.allows(retry):
            if timed_out:
                reason, rc = "timeout", timeout.escalate_rc
            elif policy.escalate_rc is not None:
                reason, rc = "retries_exhausted", policy.escalate_rc
            else:
                self._retries.pop(key, None)
                self._started_at.pop(key, None)
                return False
            self._escalate(instance, ai, reason, rc, str(exc))
            return True
        self._retries[key] = retry
        # The attempt did not complete: give its number back so the
        # journaled completion keyed (instance, activity, attempt)
        # matches replay's re-count of *completed* attempts.
        ai.attempt -= 1
        delay = policy.delay(retry)
        self._audit.record(
            self.clock,
            AuditEvent.ACTIVITY_RETRY,
            instance.instance_id,
            ai.name,
            retry=retry,
            delay=delay,
            error=str(exc),
        )
        if self._obs_on:
            self._c_retries.inc()
            span = self._activity_spans.pop(
                (instance.instance_id, ai.name), None
            )
            if span is not None:
                span.finish(status="retrying")
            hooks = self._hooks
            if hooks.wants(RetryScheduled):
                hooks.publish(
                    RetryScheduled(
                        instance.instance_id,
                        ai.name,
                        retry,
                        delay,
                        str(exc),
                        self.clock,
                    )
                )
        if delay > 0:
            self._defer_ready(instance, ai.name, self.clock + delay)
        else:
            ai.state = ActivityState.READY
            self._audit.record(
                self.clock,
                AuditEvent.ACTIVITY_READY,
                instance.instance_id,
                ai.name,
            )
            self._enqueue(instance, ai.name)
        return True

    def _escalate(
        self,
        instance: ProcessInstance,
        ai: ActivityInstance,
        reason: str,
        rc: int,
        error: str,
    ) -> None:
        """Give up on an activity: finish it with the escalation
        return code so the process's own transition conditions route
        control (compensation block, alternative path).  The journaled
        completion carries ``escalated`` so replay repeats the
        decision without re-evaluating the exit condition."""
        ai.output = instance.plan.output_container(ai.name)
        ai.output.return_code = rc
        self._record_escalation(instance, ai, reason, rc, error)
        self._finish(instance, ai, escalated=True)

    def _record_escalation(
        self,
        instance: ProcessInstance,
        ai: ActivityInstance,
        reason: str,
        rc: int,
        error: str | None = None,
    ) -> None:
        """The bookkeeping of giving up on an activity: drop its retry
        and timeout state, audit it, count it and publish it.  A
        timeout found by the exit-condition check has no ``error``."""
        key = (instance.instance_id, ai.name)
        self._retries.pop(key, None)
        self._started_at.pop(key, None)
        detail: dict[str, Any] = {"reason": reason, "rc": rc}
        if error is not None:
            detail["error"] = error
        self._audit.record(
            self.clock,
            AuditEvent.ACTIVITY_ESCALATED,
            instance.instance_id,
            ai.name,
            **detail,
        )
        if self._obs_on:
            self._c_escalated.labels(reason).inc()
            hooks = self._hooks
            if hooks.wants(ActivityEscalated):
                hooks.publish(
                    ActivityEscalated(
                        instance.instance_id, ai.name, reason, rc, self.clock
                    )
                )

    def _start_child(
        self, instance: ProcessInstance, ai: ActivityInstance
    ) -> None:
        if ai.activity.kind is ActivityKind.BLOCK:
            definition = ai.activity.block
            assert definition is not None
        else:
            definition = self._definition(ai.activity.subprocess)
        child_id = "%s/%s@%d" % (instance.instance_id, ai.name, ai.attempt)
        ai.child_instance = child_id
        assert ai.input is not None
        child_plan = self._definitions.plan_for(definition)
        into, __ = instance.plan.boundary(ai.name, child_plan)
        child_input = child_plan.process_input_container()
        child_input.receive(ai.input, into)
        self._create_instance(
            child_plan,
            child_id,
            child_input,
            starter=instance.starter,
            parent_instance=instance.instance_id,
            parent_activity=ai.name,
        )
        # If the child has no automatic work at all (degenerate), the
        # queue drains and _check_finished fires from its last activity.

    def _on_child_finished(self, child: ProcessInstance) -> None:
        parent = self.instance(child.parent_instance)
        ai = parent.activity(child.parent_activity)
        if ai.state is not ActivityState.RUNNING:
            raise NavigationError(
                "child %s finished but parent activity %s is %s"
                % (child.instance_id, ai.name, ai.state.value)
            )
        __, out = parent.plan.boundary(ai.name, child.plan)
        ai.output = parent.plan.output_container(ai.name)
        ai.output.receive(child.output, out)
        self._finish(parent, ai)

    # ------------------------------------------------------------------
    # completion
    # ------------------------------------------------------------------

    def _finish(
        self,
        instance: ProcessInstance,
        ai: ActivityInstance,
        *,
        forced: bool = False,
        replayed: bool = False,
        user: str = "",
        escalated: bool = False,
    ) -> None:
        assert ai.output is not None
        ai.state = ActivityState.FINISHED
        self._audit.record(
            self.clock,
            AuditEvent.ACTIVITY_FINISHED,
            instance.instance_id,
            ai.name,
            rc=ai.output.return_code,
            attempt=ai.attempt,
        )
        # Exit condition first: an escalated completion (retry/timeout
        # policy gave up) terminates regardless of it, and the decision
        # must be known before journaling so replay can repeat it.
        if escalated:
            exit_ok = True
        else:
            exit_evaluate = instance.plan.exit_conditions[ai.name]
            exit_ok = (
                True
                if exit_evaluate is None
                else exit_evaluate(ai.output.resolver)
            )
            if not exit_ok and self._timeouts and self._replay is None:
                # A polling loop (exit condition still false) may have
                # run out its clock budget: escalate instead of
                # rescheduling forever against a dead counterpart.
                timeout = self._timeouts.get(ai.activity.program)
                if timeout is not None:
                    started = self._started_at.get(
                        (instance.instance_id, ai.name)
                    )
                    if started is not None and timeout.expired(
                        started, self.clock
                    ):
                        escalated = exit_ok = True
                        ai.output.return_code = timeout.escalate_rc
                        self._record_escalation(
                            instance, ai, "timeout", timeout.escalate_rc
                        )
        if (
            not replayed
            and self._journal is not None
            and self._replay is None
        ):
            record = {
                "type": "activity_completed",
                "instance": instance.instance_id,
                "activity": ai.name,
                "attempt": ai.attempt,
                "output": ai.output.to_dict(),
                "forced": forced or ai.forced,
                "user": user,
            }
            if escalated:
                record["escalated"] = True
            self._journal.append(record)
        if self._obs_on:
            self._observe_completion(instance, ai, exit_ok, forced)
        if not exit_ok:
            limit = ai.activity.max_iterations
            if limit and ai.attempt >= limit:
                raise NavigationError(
                    "activity %s exceeded %d iterations without satisfying "
                    "its exit condition %r"
                    % (ai.name, limit, ai.activity.exit_condition.source)
                )
            self._audit.record(
                self.clock,
                AuditEvent.ACTIVITY_RESCHEDULED,
                instance.instance_id,
                ai.name,
                attempt=ai.attempt,
            )
            delay = (
                self._reschedule_delays.get(ai.activity.program, 0.0)
                if self._reschedule_delays
                else 0.0
            )
            if delay and self._replay is None and not ai.activity.is_manual:
                self._defer_ready(instance, ai.name, self.clock + delay)
            else:
                self._make_ready(instance, ai.name)
            return
        if self._retries or self._started_at:
            key = (instance.instance_id, ai.name)
            self._retries.pop(key, None)
            self._started_at.pop(key, None)
        self._terminate(instance, ai)

    def _observe_completion(
        self,
        instance: ProcessInstance,
        ai: ActivityInstance,
        exit_ok: bool,
        forced: bool,
    ) -> None:
        """Metrics/span/hook bookkeeping for one completed attempt."""
        outcome = "terminated" if exit_ok else "rescheduled"
        if forced or ai.forced:
            self._c_forced.inc()
        (self._c_terminated if exit_ok else self._c_rescheduled).inc()
        span = self._activity_spans.pop((instance.instance_id, ai.name), None)
        if span is not None:
            span.set_attribute("rc", ai.output.return_code)
            span.set_attribute("outcome", outcome)
            span.finish()
        hooks = self._hooks
        if hooks.wants(ActivityCompleted):
            hooks.publish(
                ActivityCompleted(
                    instance.instance_id,
                    ai.name,
                    ai.attempt,
                    ai.output.return_code,
                    outcome,
                    self.clock,
                )
            )

    def _terminate(
        self, instance: ProcessInstance, ai: ActivityInstance
    ) -> None:
        ai.state = ActivityState.TERMINATED
        self._audit.record(
            self.clock,
            AuditEvent.ACTIVITY_TERMINATED,
            instance.instance_id,
            ai.name,
            rc=ai.output.return_code if ai.output is not None else 0,
        )
        self._push_process_output(instance, ai)
        resolver = ai.output.resolver if ai.output is not None else _NULL_RESOLVER
        outgoing = instance.plan.outgoing[ai.name]
        if self._obs_on and outgoing:
            self._c_connectors.inc(len(outgoing))
        for connector in outgoing:
            evaluate = connector.evaluate
            value = True if evaluate is None else bool(evaluate(resolver))
            self._connector_evaluated(instance, connector.source, connector.target, value)
        self._check_finished(instance)

    def _push_process_output(
        self, instance: ProcessInstance, ai: ActivityInstance
    ) -> None:
        if ai.output is None:
            return
        for flow in instance.plan.output_mappings.get(ai.name, ()):
            instance.output.receive(ai.output, flow)

    def _connector_evaluated(
        self, instance: ProcessInstance, source: str, target: str, value: bool
    ) -> None:
        self._audit.record(
            self.clock,
            AuditEvent.CONNECTOR_EVALUATED,
            instance.instance_id,
            target,
            source=source,
            value=value,
        )
        ai = instance.activity(target)
        ai.incoming[connector_key(source, target)] = value
        if ai.state is not ActivityState.WAITING:
            return  # decision already made (e.g. OR-join already fired)
        if ai.start_condition_met():
            self._make_ready(instance, target)
        elif ai.start_condition_dead():
            self._kill(instance, ai)

    def _kill(self, instance: ProcessInstance, ai: ActivityInstance) -> None:
        """Dead-path elimination (§3.2)."""
        ai.state = ActivityState.TERMINATED
        ai.dead = True
        self._worklists.withdraw(instance.instance_id, ai.name)
        if self._obs_on:
            self._c_dead.inc()
        self._audit.record(
            self.clock, AuditEvent.ACTIVITY_DEAD, instance.instance_id, ai.name
        )
        for connector in instance.plan.outgoing[ai.name]:
            self._connector_evaluated(
                instance, connector.source, connector.target, False
            )
        self._check_finished(instance)

    def _check_finished(self, instance: ProcessInstance) -> None:
        if instance.state is not ProcessState.RUNNING:
            return
        if not instance.all_terminated():
            return
        self._move_state(instance, ProcessState.FINISHED)
        if self._obs_on:
            self._c_proc_finished.labels(instance.definition.name).inc()
            self._g_running.dec()
            span = self._instance_spans.pop(instance.instance_id, None)
            if span is not None:
                span.finish()
            hooks = self._hooks
            if hooks.wants(ProcessFinished):
                hooks.publish(
                    ProcessFinished(
                        instance.instance_id,
                        instance.definition.name,
                        self.clock,
                    )
                )
        self._audit.record(
            self.clock, AuditEvent.PROCESS_FINISHED, instance.instance_id
        )
        self._journal_write(
            {"type": "process_finished", "instance": instance.instance_id}
        )
        if not instance.is_root:
            self._on_child_finished(instance)
            return
        scopes = self._services.get("tx_scopes")
        if scopes is not None:
            # Safety net: a workflow that finishes with a scope still
            # open (bad routing, escalated past its rollback activity)
            # must not leak the scope's transaction and locks.
            scopes.rollback_open_for(
                instance.instance_id, "root instance finished"
            )
        if self._store is not None:
            # Archive-and-evict runs during replay too: a root whose
            # finish record was durable but whose archive append was
            # lost in a crash gets re-archived here (the append is
            # idempotent by root id).
            self._store.archive_finished(self, instance)

    # ------------------------------------------------------------------
    # suspension (§3.3: "The user can stop an activity, restart it ...")
    # ------------------------------------------------------------------

    def suspend(self, instance_id: str) -> None:
        instance = self.instance(instance_id)
        if instance.state is not ProcessState.RUNNING:
            raise NavigationError(
                "cannot suspend instance in state %s" % instance.state.value
            )
        self._move_state(instance, ProcessState.SUSPENDED)
        self._audit.record(
            self.clock, AuditEvent.PROCESS_SUSPENDED, instance_id
        )
        self._journal_write(
            {"type": "process_suspended", "instance": instance_id}
        )

    def resume(self, instance_id: str) -> None:
        instance = self.instance(instance_id)
        if instance.state is not ProcessState.SUSPENDED:
            raise NavigationError(
                "cannot resume instance in state %s" % instance.state.value
            )
        self._move_state(instance, ProcessState.RUNNING)
        self._audit.record(self.clock, AuditEvent.PROCESS_RESUMED, instance_id)
        self._journal_write(
            {"type": "process_resumed", "instance": instance_id}
        )
        # Re-queue activities left ready while suspended (their heap
        # slots were lazily invalidated; this is a fresh arrival).
        for ai in instance.activities.values():
            if ai.state is ActivityState.READY and not ai.activity.is_manual:
                self._enqueue(instance, ai.name)

    # ------------------------------------------------------------------
    # journaling / replay plumbing
    # ------------------------------------------------------------------

    def _journal_write(self, record: dict[str, Any]) -> None:
        if self._journal is not None and self._replay is None:
            self._journal.append(record)

    # ------------------------------------------------------------------
    # observability plumbing
    # ------------------------------------------------------------------

    def trace_headers(
        self, instance_id: str, activity: str = ""
    ) -> dict[str, str]:
        """Message-bus headers carrying this work's trace context:
        the running activity's attempt span if one is open, else the
        instance span.  Empty when tracing is off."""
        tracer = self._tracer
        if not tracer.enabled:
            return {}
        span = None
        if activity:
            span = self._activity_spans.get((instance_id, activity))
        if span is None:
            span = self._instance_spans.get(instance_id)
        if span is None:
            return {}
        return tracer.inject(span)

    def begin_replay(self, cursor: ReplayCursor) -> None:
        self._replay = cursor
        self._deferred = []

    def end_replay(self) -> None:
        self._replay = None
        # Interrupted work is rescheduled "from the beginning": each
        # deferred slot re-enters the heap in its discovery order.
        for instance_id, name in self._deferred:
            self._enqueue(self._instances[instance_id], name)
        self._deferred = []

    # ------------------------------------------------------------------
    # durable-store plumbing (repro.store)
    # ------------------------------------------------------------------

    def evict_instances(self, instance_ids) -> None:
        """Drop archived instances from live memory (their durable
        state now lives in the store's archive)."""
        for instance_id in instance_ids:
            instance = self._instances.pop(instance_id, None)
            self._instance_spans.pop(instance_id, None)
            if instance is not None:
                ids = self._state_index.get(instance.state.value)
                if ids is not None:
                    ids.discard(instance_id)
                ids = self._definition_index.get(instance.definition.name)
                if ids is not None:
                    ids.discard(instance_id)

    def requeue_after_restore(self, cursor: ReplayCursor) -> None:
        """Re-schedule restored instances' READY work (checkpoint
        restore path; the navigator is mid-replay on ``cursor``).

        The ready heap is volatile, so every READY activity of a
        RUNNING restored instance re-enters it as a fresh arrival —
        the same rule ``resume`` and post-replay deferral follow.
        Manual activities whose completion sits in the replay suffix
        are enqueued for cursor consumption (mirroring
        ``_make_ready``'s replay branch); the rest are re-offered
        (work items are volatile too).  Instances suspended at
        checkpoint time but resumed in the suffix go back to RUNNING
        first, exactly as full replay nets the suspend/resume pair out
        to running.

        A block or subprocess activity restored RUNNING resumes where
        ``_execute`` left it: its child instance was restored with it
        and will finish it, so the parent's own completion record —
        *derived* from the child's, and sitting in the suffix when the
        child finished after the snapshot — is consumed and discarded
        here, as ``_execute`` does when a full replay starts the child.
        """
        for instance in list(self._instances.values()):
            if (
                instance.state is ProcessState.SUSPENDED
                and instance.instance_id in cursor.resumed
            ):
                self._move_state(instance, ProcessState.RUNNING)
            running = instance.state is ProcessState.RUNNING
            for ai in instance.activities.values():
                if ai.state is ActivityState.RUNNING:
                    if ai.activity.kind is not ActivityKind.PROGRAM:
                        cursor.take(instance.instance_id, ai.name, ai.attempt)
                    continue
                if not running or ai.state is not ActivityState.READY:
                    continue
                if not ai.activity.is_manual:
                    self._enqueue(instance, ai.name)
                elif cursor.take_peek(
                    instance.instance_id, ai.name, ai.attempt + 1
                ):
                    self._enqueue(instance, ai.name)
                else:
                    self._offer(instance, ai)
