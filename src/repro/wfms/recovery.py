"""Forward recovery (§3.3).

"In case of failures, the process execution will stop.  Once the
failures have been repaired, the process execution is resumed from the
point where the failure occurred."

Recovery replays the journal's recorded decisions through a fresh
navigator: process starts are re-issued with their recorded inputs and
instance ids, and each activity execution consumes its recorded output
instead of invoking the program.  Navigation is deterministic, so the
replayed state is exactly the pre-crash state; work that had started
but produced no durable completion record is rescheduled "from the
beginning", as the paper prescribes for non-failure-atomic activities.

Replay drives the same heap-based ready queue as live execution:
recorded completions are keyed by ``(instance, activity, attempt)``
(order-insensitive), and interrupted work is deferred during replay
and re-enqueued afterwards in discovery order, so the post-recovery
dispatch order is the (priority, arrival) order the live engine would
have used.

Under group commit (``DurableStore(sync="batch")``) the durable journal may
end one batch earlier than the pre-crash engine's volatile memory: a
hard crash loses at most the unflushed suffix.  Replay only ever sees
durable records, so the recovered state is a consistent prefix of the
pre-crash execution and the lost suffix is simply re-executed — the
same rule the paper prescribes for interrupted activities.  The
default ``"always"`` policy fsyncs per record and loses nothing.
Navigation during replay also runs on compiled navigation plans; the
plan cache is rebuilt from the re-registered definitions, so replay
never depends on pre-crash volatile state.
"""

from __future__ import annotations

import re
from typing import Any

from repro.errors import RecoveryError
from repro.store.snapshot import restore_state
from repro.wfms.instance import ProcessState
from repro.wfms.journal import ReplayCursor
from repro.wfms.navigator import Navigator

_ROOT_ID = re.compile(r"^pi-(\d+)$")


def replay(
    navigator: Navigator,
    records: list[dict[str, Any]],
    checkpoint=None,
    archived: frozenset[str] = frozenset(),
) -> tuple[int, int]:
    """Replay journal ``records`` into a fresh ``navigator``.

    The engine passes its store's newest
    :class:`~repro.store.snapshot.Checkpoint` that verified (or None:
    ``records`` is then the whole journal), the journal suffix past its
    offset, and the archive's instance ids: the snapshot is restored
    first and only the suffix is replayed, skipping every record of an
    archived instance.

    Equivalence to a full replay rests on three facts (DESIGN.md
    "Durability"): the snapshot *is* the state full replay of records
    ``[0, offset)`` produces (navigation is deterministic and the
    snapshot was taken from exactly that navigator state); the suffix
    is replayed by the very same mechanism; and archived instances —
    whose records the cursor skips — are finished, so no live record
    can reference them.  A torn or corrupt newest snapshot falls back
    to the previous one with a longer suffix: strictly more replay,
    never different state.

    Returns ``(completions consumed, instances restored)``.  Afterwards
    the navigator holds every pre-crash live instance: finished ones
    are finished, interrupted ones are RUNNING with their next
    activities ready, suspended ones are suspended.
    """
    cursor = ReplayCursor(records, archived=archived)
    total = cursor.pending()
    # The replay span joins no prior trace: it is the recovery run
    # itself.  Each replayed instance re-enters its *own* pre-crash
    # trace via the linkage stored in its process_started record.
    span = navigator.obs.tracer.start_span(
        "recovery.replay",
        kind="recovery",
        attributes={
            "records": len(records),
            "completions": total,
            "checkpointed": checkpoint is not None,
        },
    )
    navigator.begin_replay(cursor)
    restored = 0
    try:
        highest = 0
        if checkpoint is not None:
            # Archive wins: an instance captured live in the snapshot
            # may have finished *and archived* within the suffix — its
            # suffix records are skipped (cursor), so restoring the
            # stale live copy would strand it mid-flight and shadow
            # the archived outcome.  Drop it from the restore set.
            state = checkpoint.state
            if archived:
                live = [
                    saved
                    for saved in state["instances"]
                    if saved["instance"] not in archived
                ]
                if len(live) != len(state["instances"]):
                    state = dict(state)
                    state["instances"] = live
                    state["audit"] = [
                        record
                        for record in state["audit"]
                        if record["instance_id"] not in archived
                    ]
            restored = restore_state(navigator, state)
            navigator.requeue_after_restore(cursor)
            highest = checkpoint.sequence
        # Roots that started *and* archived within the suffix have no
        # surviving process_started record (the cursor skips them), so
        # the archive must also advance the id sequence or a fresh
        # start_process could reuse an archived root's id.
        started = [start["instance"] for start in cursor.process_starts]
        for instance_id in (*started, *archived):
            match = _ROOT_ID.match(instance_id)
            if match:
                highest = max(highest, int(match.group(1)))
        navigator.set_sequence(highest)
        for start in cursor.process_starts:
            if start.get("parent_instance"):
                continue  # child instances are re-created by their parents
            navigator.start_process(
                start["definition"],
                start.get("input", {}),
                starter=start.get("starter", ""),
                instance_id=start["instance"],
                version=start.get("version"),
                trace_parent=start.get("trace"),
            )
            navigator.run()
        # Restored instances may have suffix completions to consume
        # even when the suffix starts no new roots.
        navigator.run()
        if cursor.pending():
            raise RecoveryError(
                "%d journal completions were never consumed; the journal "
                "does not match the registered definitions" % cursor.pending()
            )
        for instance_id in sorted(cursor.suspended):
            instance = navigator.instance(instance_id)
            if instance.state is ProcessState.RUNNING:
                navigator.suspend(instance_id)
    finally:
        navigator.end_replay()
        replayed = total - cursor.pending()
        span.set_attribute("replayed", replayed)
        span.finish()
    return replayed, restored
