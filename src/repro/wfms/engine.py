"""The workflow engine facade.

Ties together the metamodel, navigator, program registry, organization,
worklists, audit trail and persistent journal.  This is the class user
code (and the FMTM translator pipeline) talks to::

    engine = Engine()
    engine.register_program("hello", lambda ctx: 0)
    defn = ProcessDefinition("Hi")
    defn.add_activity(Activity("Greet", program="hello"))
    engine.register_definition(defn)
    iid = engine.start_process("Hi")
    engine.run()
    assert engine.instance_state(iid) == "finished"
"""

from __future__ import annotations

import copy
from typing import TYPE_CHECKING, Any

from repro.errors import (
    DefinitionError,
    JournalError,
    NavigationError,
    ProgramError,
    WorkflowError,
)
from repro.obs import EngineCrashed, EngineRecovered, resolve_observability
from repro.wfms.audit import AuditTrail
from repro.wfms.datatypes import DataType
from repro.wfms.graph import check_subprocess_boundaries
from repro.wfms.model import ActivityKind, ProcessDefinition
from repro.wfms.navigator import Navigator
from repro.wfms.organization import Organization
from repro.wfms.programs import Program, ProgramRegistry
from repro.wfms.recovery import replay
from repro.wfms.registry import DefinitionRegistry
from repro.wfms.worklist import Notification, WorkItem, WorklistManager

if TYPE_CHECKING:
    from repro.store.segments import SegmentedJournal


class Engine:
    """One workflow management system instance."""

    def __init__(
        self,
        *,
        organization: Organization | None = None,
        observability=None,
        fault_injector=None,
        store=None,
    ):
        """``store`` makes the engine persistent: a fresh
        :class:`~repro.store.durable.DurableStore` whose segmented
        journal records every non-deterministic decision (its ``sync``
        policy sets when a record becomes durable), whose checkpoint
        policy (none by default: recovery replays the whole journal)
        bounds replay, and whose archive takes finished root instances
        out of live memory.  ``recover()`` restores the latest
        snapshot, if any, and replays the journal suffix past it.
        Without a store the engine is volatile and cannot recover.

        ``observability`` enables metrics/tracing/hooks
        (:mod:`repro.obs`): ``True`` for a fresh fully enabled bundle,
        an :class:`~repro.obs.Observability` instance to share one
        (e.g. across a crash/recover engine pair), default off —
        the disabled path is guaranteed near-zero overhead.

        ``fault_injector`` installs a
        :class:`~repro.resilience.faults.FaultInjector` on the
        navigator (program-invocation faults) and journal (disk
        faults); default None costs nothing on the hot path."""
        self.obs = resolve_observability(observability)
        self.programs = ProgramRegistry()
        self.organization = (
            organization if organization is not None else Organization()
        )
        self.worklists = WorklistManager(obs=self.obs)
        self.audit = AuditTrail()
        self.services: dict[str, Any] = {}
        self._definitions = DefinitionRegistry()
        self._store = store
        if store is not None:
            store.attach(obs=self.obs, injector=fault_injector)
        self._crashed = False
        self.navigator = Navigator(
            self._definitions,
            self.programs,
            self.organization,
            self.worklists,
            self.audit,
            self.services,
            obs=self.obs,
            injector=fault_injector,
            store=store,
        )
        if self.obs.enabled:
            self.worklists.bind_clock(lambda: self.navigator.clock)

    # -- build-time ------------------------------------------------------

    def register_definition(self, definition: ProcessDefinition) -> None:
        """Validate and register a process template (FDL import step).

        Several *versions* of the same process may coexist (§3.2);
        re-registering the same name+version is an error.  A
        store-backed engine refuses a BINARY member: the journal cannot
        persist one.
        """
        definition.validate()
        if self._store is not None:
            where = next(_binary_members(definition), None)
            if where is not None:
                raise DefinitionError(
                    "%s is BINARY, which a store-backed engine cannot "
                    "persist" % where
                )
        self._definitions.register(definition)

    def definition(
        self, name: str, version: str | None = None
    ) -> ProcessDefinition:
        """The registered definition (latest version by default)."""
        return self._definitions.get(name, version)

    def definition_versions(self, name: str) -> list[str]:
        return self._definitions.versions(name)

    def definitions(self) -> list[str]:
        return self._definitions.names()

    def register_program(
        self,
        name: str,
        program: Program,
        description: str = "",
        *,
        failure_atomic: bool = True,
        replace: bool = False,
    ) -> None:
        self.programs.register(
            name,
            program,
            description,
            failure_atomic=failure_atomic,
            replace=replace,
        )
        # A new (or replaced) program can change the outcome of any
        # memoized semantic check.
        self._definitions.invalidate_verified()

    def verify_executable(self, name: str, version: str | None = None) -> None:
        """Semantic check of Figure 5's translator stage: every program
        the definition references must be registered, every subprocess
        definition present, and every subprocess boundary type-correct
        (:func:`~repro.wfms.graph.check_subprocess_boundaries`).

        Results are memoized per resolved ``(name, version)`` in the
        definition registry (``start_process`` calls this on every
        start), invalidated by definition or program registration.
        Cyclic subprocess references raise :class:`DefinitionError`
        naming the cycle instead of recursing forever.
        """
        self._verify_definition(self.definition(name, version), ())

    def _verify_definition(
        self, definition: ProcessDefinition, stack: tuple[tuple[str, str], ...]
    ) -> None:
        key = (definition.name, definition.version)
        if key in stack:
            chain = [n for n, __ in stack[stack.index(key):]] + [definition.name]
            raise DefinitionError(
                "cyclic subprocess reference: %s" % " -> ".join(chain)
            )
        if self._definitions.is_verified(key):
            return
        name = definition.name
        for program in sorted(definition.program_names()):
            if program not in self.programs:
                raise ProgramError(
                    "process %s references unregistered program %r"
                    % (name, program)
                )
        stack = stack + (key,)
        for sub in sorted(definition.subprocess_names()):
            if sub not in self._definitions:
                raise DefinitionError(
                    "process %s references unregistered subprocess %r"
                    % (name, sub)
                )
            self._verify_definition(self._definitions.get(sub), stack)
        check_subprocess_boundaries(definition, self._definitions.get)
        self._definitions.mark_verified(key)

    # -- run-time ----------------------------------------------------------

    def start_process(
        self,
        name: str,
        input_values: dict[str, Any] | None = None,
        *,
        starter: str = "",
        version: str | None = None,
        instance_id: str = "",
    ) -> str:
        """``instance_id`` pins an explicit id (sharded/distributed
        callers derive placement from it); empty picks the next
        sequential ``pi-NNNN``."""
        self._check_up()
        self.verify_executable(name, version)
        try:
            return self.navigator.start_process(
                name,
                input_values,
                starter=starter,
                version=version,
                instance_id=instance_id,
            )
        except JournalError:
            self._degrade()
            raise

    def step(self) -> bool:
        self._check_up()
        try:
            return self.navigator.step()
        except JournalError:
            self._degrade()
            raise

    def run(self, max_steps: int = 1_000_000) -> int:
        """Drain all automatic work; manual items remain on worklists."""
        self._check_up()
        try:
            return self.navigator.run(max_steps)
        except JournalError:
            self._degrade()
            raise

    def drain(self, max_steps: int = 1_000_000) -> int:
        """Run to quiescence *through* resilience delays: when only
        delayed work (retry backoff, poll intervals) remains, advance
        the logical clock to the next due time and keep running."""
        self._check_up()
        steps = self.run(max_steps)
        while True:
            due = self.navigator.next_delayed_due()
            if due is None:
                return steps
            self.advance_clock(max(0.0, due - self.navigator.clock))
            steps += self.run(max_steps)

    def run_process(
        self,
        name: str,
        input_values: dict[str, Any] | None = None,
        *,
        starter: str = "",
    ) -> "ProcessResult":
        """Start a process and run it to quiescence; returns its result."""
        instance_id = self.start_process(name, input_values, starter=starter)
        self.run()
        return self.result(instance_id)

    def _archived_record(self, instance_id: str) -> dict[str, Any] | None:
        """The archived per-instance record (root or descendant) when
        this engine has a store and the instance was archived, else
        None.  Archived instances left live navigator/audit memory, so
        every instance query but a root's state and output (see
        :meth:`_archived_row`) falls back through here, and reads the
        root's entry from the archive file."""
        if self._store is None:
            return None
        view = self._store.archive.by_id(instance_id)
        if view is None:
            return None
        if "instances" in view:  # a root's full entry
            record = dict(view["instances"][instance_id])
            record["instance"] = instance_id
            record["finished_at"] = view["finished_at"]
            record["starter"] = view.get("starter", "")
            return record
        return view

    def _archived_row(self, instance_id: str):
        """The archive's in-memory row when ``instance_id`` is an
        archived root, else None: a root's state and output answer from
        it without a read (a served request's reply, the flex loop's
        polling)."""
        if self._store is None:
            return None
        return self._store.archive.row(instance_id)

    def instance_state(self, instance_id: str) -> str:
        try:
            return self.navigator.instance(instance_id).state.value
        except NavigationError:
            row = self._archived_row(instance_id)
            if row is not None:
                return row.state
            record = self._archived_record(instance_id)
            if record is None:
                raise
            return record["state"]

    def activity_states(self, instance_id: str) -> dict[str, str]:
        """activity -> state (``"dead"`` for dead-path eliminated).  An
        archived instance finished, so each of its activities either
        terminated or died."""
        try:
            return self.navigator.instance(instance_id).states()
        except NavigationError:
            record = self._archived_record(instance_id)
            if record is None:
                raise
            states = dict.fromkeys(record["execution_order"], "terminated")
            states.update(dict.fromkeys(record["dead_activities"], "dead"))
            return states

    def output(self, instance_id: str) -> dict[str, Any]:
        try:
            return self.navigator.instance(instance_id).output.to_dict()
        except NavigationError:
            row = self._archived_row(instance_id)
            if row is not None:
                return copy.deepcopy(row.output)
            record = self._archived_record(instance_id)
            if record is None:
                raise
            return copy.deepcopy(record["output"])

    def result(self, instance_id: str) -> "ProcessResult":
        try:
            instance = self.navigator.instance(instance_id)
        except NavigationError:
            record = self._archived_record(instance_id)
            if record is None:
                raise
            return ProcessResult(
                instance_id=instance_id,
                process=record["definition"],
                state=record["state"],
                output=copy.deepcopy(record["output"]),
                execution_order=list(record["execution_order"]),
                dead_activities=list(record["dead_activities"]),
            )
        return ProcessResult(
            instance_id=instance_id,
            process=instance.definition.name,
            state=instance.state.value,
            output=instance.output.to_dict(),
            execution_order=self.audit.execution_order(instance_id),
            dead_activities=self.audit.dead_activities(instance_id),
        )

    def execution_order(
        self, instance_id: str, *, include_children: bool = True
    ) -> list[str]:
        """Activities in termination order, descending into blocks and
        subprocesses at the point their parent activity terminated."""
        try:
            instance = self.navigator.instance(instance_id)
        except NavigationError:
            record = self._archived_record(instance_id)
            if record is None:
                raise
            key = "order" if include_children else "execution_order"
            return list(record[key])
        if not include_children:
            return self.audit.execution_order(instance_id)
        return self.navigator.deep_execution_order(instance)

    # -- monitoring (§3.3: "monitoring, accounting, ...") ------------------

    def process_list(
        self,
        *,
        state: str | None = None,
        definition: str | None = None,
        include_archived: bool = False,
    ) -> list[dict[str, Any]]:
        """One summary row per process instance, root instances first.

        ``state``/``definition`` filter through the navigator's
        secondary indexes, so the walk is O(matching), not O(all live
        instances).  ``include_archived`` adds rows (flagged
        ``"archived": True``) for archived instances from the store's
        by-definition index; archived instances are always finished, so
        a ``state`` filter other than ``"finished"`` skips them.
        """
        rows = []
        for instance_id in self.navigator.instance_ids(
            state=state, definition=definition
        ):
            instance = self.navigator.instance(instance_id)
            states = instance.states()
            counts: dict[str, int] = {}
            for activity_state in states.values():
                counts[activity_state] = counts.get(activity_state, 0) + 1
            rows.append(
                {
                    "instance": instance.instance_id,
                    "definition": instance.definition.name,
                    "state": instance.state.value,
                    "starter": instance.starter,
                    "parent": instance.parent_instance,
                    "activities": counts,
                }
            )
        if (
            include_archived
            and self._store is not None
            and state in (None, "finished")
        ):
            archive = self._store.archive
            if definition is not None:
                entries = archive.by_definition(definition)
            else:
                entries = [archive.by_id(root) for root in archive.roots()]
            for entry in entries:
                for member_id, record in entry["instances"].items():
                    if (
                        definition is not None
                        and record["definition"] != definition
                    ):
                        continue
                    rows.append(
                        {
                            "instance": member_id,
                            "definition": record["definition"],
                            "state": record["state"],
                            "starter": entry.get("starter", ""),
                            "parent": record.get("parent_instance", ""),
                            "activities": {},
                            "archived": True,
                        }
                    )
        rows.sort(key=lambda r: (r["parent"], r["instance"]))
        return rows

    def monitor(self, instance_id: str) -> dict[str, Any]:
        """Detailed view of one instance: per-activity state, attempts,
        return codes and any open work item.  Archived instances return
        a summary view flagged ``"archived": True``."""
        try:
            instance = self.navigator.instance(instance_id)
        except NavigationError:
            record = self._archived_record(instance_id)
            if record is None:
                raise
            return {
                "instance": instance_id,
                "definition": record["definition"],
                "state": record["state"],
                "starter": record.get("starter", ""),
                "output": copy.deepcopy(record["output"]),
                "archived": True,
                "finished_at": record["finished_at"],
                "execution_order": list(record["execution_order"]),
                "dead_activities": list(record["dead_activities"]),
            }
        activities = {}
        for name, ai in instance.activities.items():
            item = self.worklists.open_item_for(instance_id, name)
            activities[name] = {
                "state": "dead" if ai.dead else ai.state.value,
                "attempts": ai.attempt,
                "rc": ai.output.return_code if ai.output is not None else None,
                "claimed_by": ai.claimed_by,
                "work_item": item.item_id if item is not None else "",
            }
        return {
            "instance": instance_id,
            "definition": instance.definition.name,
            "state": instance.state.value,
            "starter": instance.starter,
            "output": instance.output.to_dict(),
            "activities": activities,
            "audit_records": self.audit.count(instance_id),
        }

    def account(
        self,
        instance_id: str,
        *,
        program_rates: dict[str, float] | None = None,
        default_rate: float = 1.0,
        include_children: bool = True,
    ) -> dict[str, Any]:
        """§3.3 accounting: charge each program invocation at its rate.

        Returns per-program invocation counts and costs plus the
        instance total; block/subprocess children are included by
        default (their invocations are where the work happens).
        Archived instances answer from the archive's per-instance
        ``invocations`` records instead of raising.
        """
        rates = program_rates or {}
        invocations: dict[str, int] = {}

        def merge(counts: dict[str, int]) -> None:
            for program, count in counts.items():
                invocations[program] = invocations.get(program, 0) + count

        def collect_archived(target_id: str) -> bool:
            """Charge from the archive entry; False when not archived."""
            if self._store is None:
                return False
            view = self._store.archive.by_id(target_id)
            if view is None:
                return False
            if "instances" in view:  # a root's full entry
                records = view["instances"]
                if include_children:
                    for record in records.values():
                        merge(record.get("invocations", {}))
                else:
                    merge(records[target_id].get("invocations", {}))
                return True
            merge(view.get("invocations", {}))
            if include_children:
                # Descend within the entry via parent links (records
                # are creation-ordered: parents precede children).
                entry = self._store.archive.by_id(view["root"])
                members = {target_id}
                for member_id, record in entry["instances"].items():
                    if record.get("parent_instance") in members:
                        members.add(member_id)
                        merge(record.get("invocations", {}))
            return True

        def collect(target_id: str) -> None:
            try:
                instance = self.navigator.instance(target_id)
            except NavigationError:
                if not collect_archived(target_id):
                    raise
                return
            for ai in instance.activities.values():
                if ai.activity.kind is ActivityKind.PROGRAM:
                    if ai.attempt:
                        program = ai.activity.program
                        invocations[program] = (
                            invocations.get(program, 0) + ai.attempt
                        )
                elif include_children and ai.child_instance:
                    collect(ai.child_instance)

        collect(instance_id)
        lines = {
            program: {
                "invocations": count,
                "rate": rates.get(program, default_rate),
                "cost": count * rates.get(program, default_rate),
            }
            for program, count in sorted(invocations.items())
        }
        return {
            "instance": instance_id,
            "lines": lines,
            "total": sum(line["cost"] for line in lines.values()),
        }

    # -- manual work ---------------------------------------------------------

    def worklist(self, user_id: str) -> list[WorkItem]:
        return self.worklists.worklist(user_id)

    def claim(self, item_id: str, user_id: str) -> WorkItem:
        return self.worklists.claim(item_id, user_id)

    def start_item(self, item_id: str) -> None:
        """Execute a claimed work item (then drain follow-on work)."""
        self._check_up()
        self.navigator.start_manual(item_id)
        self.navigator.run()

    def force_finish(
        self,
        instance_id: str,
        activity: str,
        *,
        return_code: int = 0,
        output_values: dict[str, Any] | None = None,
        user: str = "",
    ) -> None:
        self._check_up()
        self.navigator.force_finish(
            instance_id,
            activity,
            return_code=return_code,
            output_values=output_values,
            user=user,
        )
        self.navigator.run()

    def suspend(self, instance_id: str) -> None:
        self.navigator.suspend(instance_id)

    def resume(self, instance_id: str) -> None:
        self._check_up()
        self.navigator.resume(instance_id)

    # -- clock & notifications -------------------------------------------------

    @property
    def clock(self) -> float:
        return self.navigator.clock

    def advance_clock(self, delta: float) -> list[Notification]:
        """Advance logical time and raise deadline notifications."""
        self._check_up()
        if delta < 0:
            raise NavigationError("the clock cannot move backwards")
        self.navigator.clock += delta
        self.navigator.release_due(self.navigator.clock)
        return self.worklists.check_deadlines(
            self.navigator.clock, self._notify_recipients
        )

    # -- resilience policies (repro.resilience) ---------------------------

    def set_retry(self, program: str, policy) -> None:
        """Retry failed invocations of ``program`` under a
        :class:`~repro.resilience.policies.RetryPolicy` (None removes)."""
        self.navigator.set_retry(program, policy)

    def set_timeout(self, program: str, timeout) -> None:
        """Bound ``program`` activities with a
        :class:`~repro.resilience.policies.Timeout` (None removes)."""
        self.navigator.set_timeout(program, timeout)

    def set_reschedule_delay(self, program: str, delay: float) -> None:
        """Space exit-condition reschedules of ``program`` by ``delay``
        logical seconds (0 removes)."""
        self.navigator.set_reschedule_delay(program, delay)

    def _notify_recipients(self, role: str) -> list[str]:
        if role and self.organization.has_role(role):
            return self.organization.members_of(role)
        return []

    # -- crash / recovery --------------------------------------------------------

    def crash(self) -> None:
        """Simulate a machine failure: volatile state is lost, the
        journal survives.  The engine object refuses further work.

        ``flush()`` is the durability barrier: under group commit
        (``DurableStore(sync="batch")``) any still-buffered suffix is
        committed before the journal closes, so an orderly ``crash()``
        (and ``close()``) loses nothing — only a *hard* loss of the
        process can drop the unflushed suffix."""
        self.close()
        self._mark_crashed()

    def recover(self) -> int:
        """Forward recovery from the store's newest valid checkpoint
        (if any) plus the journal suffix past it.

        Call on a *fresh* engine after re-registering definitions and
        programs; returns the number of completions replayed.
        """
        store = self._store
        if store is None:
            raise NavigationError("recovery requires a store-backed engine")
        scopes = self.services.get("tx_scopes")
        if scopes is not None:
            # Scopes open at crash time are torn: roll their
            # transactions back (WAL undo frees the locks) before
            # replay, so re-executed activities deterministically find
            # the scope gone and route to their rollback paths.
            scopes.recover()
        store.reopen()
        checkpoint, skipped = store.latest_checkpoint()
        archived = store.archive.ids()
        offset = checkpoint.offset if checkpoint is not None else 0
        records = store.journal.suffix(offset)
        replayed, restored = replay(
            self.navigator, records, checkpoint, archived
        )
        store.last_recovery = {
            "checkpoint": checkpoint.path if checkpoint else None,
            "offset": offset,
            "skipped_checkpoints": skipped,
            "suffix_records": len(records),
            "archived_skipped": len(archived),
            "restored_instances": restored,
            "replayed": replayed,
        }
        # Barrier: post-replay journaling resumes from a durable file.
        store.journal.flush()
        if self.obs.enabled:
            self.obs.metrics.counter(
                "wfms_recoveries_total", "Journal replays completed"
            ).inc()
            self.obs.metrics.counter(
                "wfms_recovery_replayed_total",
                "Activity completions consumed from journals",
            ).inc(replayed)
            if self.obs.hooks.wants(EngineRecovered):
                self.obs.hooks.publish(
                    EngineRecovered(replayed, self.navigator.clock)
                )
        return replayed

    @property
    def journal(self) -> "SegmentedJournal | None":
        """The store's journal, or None for a volatile engine."""
        return self._store.journal if self._store is not None else None

    @property
    def store(self):
        """The attached :class:`~repro.store.DurableStore`, or None."""
        return self._store

    def checkpoint(self):
        """Force a durable checkpoint now (independent of the store's
        ``checkpoint_every`` policy).  Returns the new
        :class:`~repro.store.Checkpoint`."""
        self._check_up()
        if self._store is None:
            raise WorkflowError("engine has no durable store")
        try:
            return self._store.checkpoint(self.navigator)
        except JournalError:
            self._degrade()
            raise

    def store_status(self) -> dict[str, Any]:
        """Durability status: segment/checkpoint/archive counters, or
        ``{"enabled": False}`` when the engine has no store."""
        if self._store is None:
            return {"enabled": False}
        return self._store.status(clock=self.navigator.clock)

    def close(self) -> None:
        if self._store is not None:
            self._store.flush()
            self._store.close()

    @property
    def crashed(self) -> bool:
        return self._crashed

    def _check_up(self) -> None:
        if self._crashed:
            raise NavigationError(
                "the engine has crashed; build a new engine and recover()"
            )

    def _degrade(self) -> None:
        """The journal's disk failed mid-operation: treat it as a
        machine failure.  The file handle is abandoned (a flush would
        raise again); the durable prefix stays replayable, so
        ``recover()`` on a fresh engine works exactly as after
        :meth:`crash`."""
        if self._store is not None:
            self._store.abandon()
        self._mark_crashed()

    def _mark_crashed(self) -> None:
        self._crashed = True
        if self.obs.enabled:
            self.obs.metrics.counter(
                "wfms_engine_crashes_total", "Simulated machine failures"
            ).inc()
            if self.obs.hooks.wants(EngineCrashed):
                self.obs.hooks.publish(EngineCrashed(self.navigator.clock))


class ProcessResult:
    """Outcome summary of one process instance."""

    __slots__ = (
        "instance_id",
        "process",
        "state",
        "output",
        "execution_order",
        "dead_activities",
    )

    def __init__(
        self,
        instance_id: str,
        process: str,
        state: str,
        output: dict[str, Any],
        execution_order: list[str],
        dead_activities: list[str],
    ):
        self.instance_id = instance_id
        self.process = process
        self.state = state
        self.output = output
        self.execution_order = execution_order
        self.dead_activities = dead_activities

    @property
    def finished(self) -> bool:
        return self.state == "finished"

    def __repr__(self) -> str:
        return "ProcessResult(%s, %s, %s)" % (
            self.instance_id,
            self.process,
            self.state,
        )


def _binary_members(definition: ProcessDefinition, where: str = ""):
    """Every BINARY member ``definition`` declares — in the process or
    an activity container, inside a structure one of them uses, or in
    a nested block — as ``process/activity.member.path``."""
    where += definition.name
    types = definition.types

    def scan(decls, path):
        for decl in decls:
            here = "%s.%s" % (path, decl.name)
            if decl.type is DataType.BINARY:
                yield here
            elif decl.is_structure:
                yield from scan(types.get(str(decl.type)).members, here)

    yield from scan(definition.input_spec + definition.output_spec, where)
    for activity in definition.activities.values():
        path = "%s/%s" % (where, activity.name)
        yield from scan(activity.input_spec + activity.output_spec, path)
        if activity.block is not None:
            yield from _binary_members(activity.block, path + "/")
