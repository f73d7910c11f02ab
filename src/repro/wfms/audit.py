"""Audit trail (§3.3: monitoring and accounting).

Every significant state transition of every process/activity instance
is recorded as an :class:`AuditRecord`.  The trail is the ground truth
the reproduction's experiments assert against: the saga guarantee
(`T1..Tn` or `T1..Tj;Cj..C1`) and the flexible-transaction path
selection are both checked by reading execution orders off the trail.

The trail is one record list per instance, so the query helpers
(:meth:`~AuditTrail.records` with an instance filter,
``execution_order``, ``attempts``, ``count``) scale with that
instance's history, not with every record ever written, and pruning an
archived instance is one dict pop.  Records are appended in sequence
order, so every answer is bit-for-bit the filtered full scan.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Iterable


class AuditEvent(Enum):
    PROCESS_STARTED = "process_started"
    PROCESS_FINISHED = "process_finished"
    PROCESS_SUSPENDED = "process_suspended"
    PROCESS_RESUMED = "process_resumed"
    ACTIVITY_READY = "activity_ready"
    ACTIVITY_STARTED = "activity_started"
    ACTIVITY_FINISHED = "activity_finished"     # program returned
    ACTIVITY_TERMINATED = "activity_terminated"  # exit condition held
    ACTIVITY_RESCHEDULED = "activity_rescheduled"  # exit condition failed
    ACTIVITY_RETRY = "activity_retry"           # failed invocation, retried
    ACTIVITY_ESCALATED = "activity_escalated"   # retry/timeout gave up
    ACTIVITY_DEAD = "activity_dead"             # dead-path elimination
    ACTIVITY_FORCED = "activity_forced"         # user force-finish
    CONNECTOR_EVALUATED = "connector_evaluated"
    ITEM_OFFERED = "item_offered"
    ITEM_CLAIMED = "item_claimed"
    NOTIFICATION = "notification"


@dataclass(frozen=True)
class AuditRecord:
    sequence: int
    at: float
    event: AuditEvent
    instance_id: str
    activity: str = ""
    detail: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {
            "sequence": self.sequence,
            "at": self.at,
            "event": self.event.value,
            "instance_id": self.instance_id,
            "activity": self.activity,
            "detail": dict(self.detail),
        }


class AuditTrail:
    """Append-only in-memory trail with query helpers.

    Records live in one bucket per instance, in sequence order; that
    bucket is the whole trail.  Sequence numbers come from an explicit
    monotonic counter, so archiving — which pops a finished instance's
    bucket after moving it to the durable
    :class:`repro.store.archive.InstanceArchive` — can never reuse a
    sequence number.  Instance-less queries sort the union of the
    buckets by sequence; only tests make them.
    """

    def __init__(self) -> None:
        self._by_instance: dict[str, list[AuditRecord]] = {}
        self._next_sequence = 0

    def record(
        self,
        at: float,
        event: AuditEvent,
        instance_id: str,
        activity: str = "",
        **detail: Any,
    ) -> AuditRecord:
        record = AuditRecord(
            self._next_sequence, at, event, instance_id, activity, detail
        )
        self._next_sequence += 1
        self._append(record)
        return record

    def _append(self, record: AuditRecord) -> None:
        bucket = self._by_instance.get(record.instance_id)
        if bucket is None:
            bucket = self._by_instance[record.instance_id] = []
        bucket.append(record)

    @property
    def next_sequence(self) -> int:
        return self._next_sequence

    def __len__(self) -> int:
        return sum(len(bucket) for bucket in self._by_instance.values())

    def __iter__(self):
        return iter(self.records())

    # -- archiving support (repro.store) --------------------------------

    def export_instances(
        self, instance_ids: Iterable[str]
    ) -> list[dict[str, Any]]:
        """The named instances' records as dicts, in sequence order —
        the audit slice a checkpoint (live instances) or an archive
        entry (a finished instance tree) carries."""
        records: list[AuditRecord] = []
        for instance_id in instance_ids:
            records.extend(self._by_instance.get(instance_id, ()))
        records.sort(key=lambda r: r.sequence)
        return [r.to_dict() for r in records]

    def restore(
        self, records: Iterable[dict[str, Any]], next_sequence: int
    ) -> None:
        """Re-append exported records (checkpoint restore).  The
        sequence counter continues past both the restored records and
        the checkpoint's recorded high-water mark."""
        for data in records:
            record = AuditRecord(
                int(data["sequence"]),
                float(data["at"]),
                AuditEvent(data["event"]),
                data["instance_id"],
                data.get("activity", ""),
                dict(data.get("detail", ())),
            )
            self._append(record)
            if record.sequence >= self._next_sequence:
                self._next_sequence = record.sequence + 1
        if next_sequence > self._next_sequence:
            self._next_sequence = int(next_sequence)

    def prune_instance(self, instance_id: str) -> int:
        """Drop an archived instance's records from live memory;
        returns how many records were pruned."""
        return len(self._by_instance.pop(instance_id, ()))

    def records(
        self,
        instance_id: str | None = None,
        event: AuditEvent | None = None,
        activity: str | None = None,
    ) -> list[AuditRecord]:
        """Filtered records in sequence order.

        An ``instance_id`` filter reads that instance's bucket (the
        common monitoring path); only instance-less queries sort every
        bucket together.
        """
        if instance_id is not None:
            source = self._by_instance.get(instance_id, ())
        else:
            source = sorted(
                (r for bucket in self._by_instance.values() for r in bucket),
                key=lambda r: r.sequence,
            )
        return [
            r
            for r in source
            if (event is None or r.event == event)
            and (activity is None or r.activity == activity)
        ]

    def count(
        self, instance_id: str, event: AuditEvent | None = None
    ) -> int:
        """Number of records for an instance."""
        bucket = self._by_instance.get(instance_id, ())
        if event is None:
            return len(bucket)
        return sum(1 for r in bucket if r.event == event)

    def execution_order(self, instance_id: str) -> list[str]:
        """Activity names in the order they *terminated* (completed
        with a true exit condition) — the history the paper's
        guarantees are phrased over.  Dead-path terminations are not
        executions and are excluded."""
        return [
            r.activity
            for r in self.records(instance_id, AuditEvent.ACTIVITY_TERMINATED)
        ]

    def started_order(self, instance_id: str) -> list[str]:
        return [
            r.activity
            for r in self.records(instance_id, AuditEvent.ACTIVITY_STARTED)
        ]

    def dead_activities(self, instance_id: str) -> list[str]:
        return [
            r.activity
            for r in self.records(instance_id, AuditEvent.ACTIVITY_DEAD)
        ]

    def attempts(self, instance_id: str, activity: str) -> int:
        """How many times an activity ran (exit-condition loops)."""
        return len(
            self.records(instance_id, AuditEvent.ACTIVITY_STARTED, activity)
        )


def merge_orders(trails: Iterable[list[str]]) -> list[str]:
    """Concatenate execution orders (used when a process spans blocks
    whose instances have their own ids)."""
    merged: list[str] = []
    for trail in trails:
        merged.extend(trail)
    return merged
