"""Write-ahead bus log: the broker's durability substrate.

PR 8 put the authoritative :class:`~repro.wfms.messaging.MessageBus`
behind a socket — and thereby into one process's volatile memory.  A
broker crash silently destroyed every queue, in-flight envelope, DLQ
entry and stat bucket, even though every *node* could replay its own
journal.  :class:`BusLog` closes that hole with the very facility the
engine store runs on, a :class:`~repro.store.checkpointed.
CheckpointedLog`:

* its journal is a :class:`~repro.store.segments.SegmentedJournal`
  whose record types are the **state-mutating bus operations**
  (``send``, ``reject``, ``ack``, ``nack``, ``dead_letter``,
  ``dlq_drain``, ``recover_in_flight``) and whose fault sites are
  ``buslog.append`` / ``buslog.fsync``.  The ``always | batch |
  never`` sync policies apply unchanged;
* its checkpoints are atomic, checksummed snapshots of the full bus
  state tagged with the journal offset they cover, written, retired
  and compacted by the one protocol the engine's are, so recovery is
  O(delta since last checkpoint);

and adds what is the broker's own:

* an ``EPOCH`` file bumped on every open — the broker-restart token
  clients compare in the hello reply to detect that their session
  died with a previous broker incarnation.

**Effects, not intents.**  A ``send`` record stores what the
fault injector *decided* (the enqueued envelopes, or none for a drop)
rather than the request parameters, so replay applies the journaled
outcome directly and never re-consults the RNG — the determinism
contract extends across broker restarts for free.

**Receives are deliberately not journaled.**  Delivery is volatile by
design: a broker crash clears every in-flight reservation (the same
at-least-once semantics as a consumer crash), and surviving consumers
re-reserve their messages via session resume
(:meth:`~repro.wfms.messaging.MessageBus.mark_in_flight`).  The cost
is that ``delivered``/``redelivered`` stat counters only survive up
to the last checkpoint; the benefit is that the hot receive path pays
no durability point.

Each journaled record also carries the issuing client's **op id** and
the broker's reply, so recovery rebuilds the per-session dedup table:
a request replayed across a broker restart (client applied, broker
died before replying) returns the cached reply instead of
double-applying.
"""

from __future__ import annotations

import os
from typing import Any

from repro.errors import RecoveryError
from repro.store.atomic import atomic_write
from repro.store.checkpointed import CheckpointedLog
from repro.wfms.messaging import MessageBus, _Envelope, dlq_name

#: The state-mutating bus operations the log journals.  Everything
#: else (``receive``, ``depth``, ``stats``, ...) is either volatile by
#: design or read-only.
BUS_RECORD_TYPES = frozenset(
    {
        "send",
        "reject",
        "ack",
        "nack",
        "dead_letter",
        "dlq_drain",
        "recover_in_flight",
    }
)

EPOCH_NAME = "EPOCH"
LOG_DIRNAME = "log"


def _msg_seq(msg_id: str) -> int:
    """The counter value behind an ``m%06d`` message id (-1 for
    foreign ids, which cannot collide with generated ones anyway)."""
    if msg_id.startswith("m") and msg_id[1:].isdigit():
        return int(msg_id[1:])
    return -1


def replay_into(bus: MessageBus, record: dict[str, Any]) -> None:
    """Apply one journaled bus record to ``bus``.

    Replays the journaled *effect* — envelopes are rebuilt with their
    recorded ids, acks remove by id regardless of in-flight state
    (delivery reservations are volatile and not journaled) — so a
    replayed history converges on the pre-crash queues without
    consulting any injector.
    """
    rtype = record.get("type")
    queue = record.get("queue", "")
    if rtype == "send":
        bus._stat(queue, "sent")
        effect = record.get("effect", "enqueued")
        if effect != "enqueued":
            bus._stat(
                queue,
                {"dropped": "dropped", "duplicated": "duplicated",
                 "delayed": "delayed"}[effect],
            )
        for row in record.get("entries") or []:
            bus._queues.setdefault(queue, []).append(
                _Envelope(
                    row["msg_id"],
                    dict(row.get("body") or {}),
                    dict(row.get("headers") or {}),
                    hold=int(row.get("hold", 0)),
                )
            )
        return
    if rtype == "reject":
        envelope = _Envelope(
            record["msg_id"],
            dict(record.get("body") or {}),
            dict(record.get("headers") or {}),
        )
        envelope.headers["dead-letter-reason"] = record.get("reason", "")
        target = dlq_name(queue)
        bus._queues.setdefault(target, []).append(envelope)
        bus._stat(queue, "overflowed")
        bus._stat(target, "sent")
        return
    if rtype == "ack":
        msg_id = record.get("msg_id", "")
        envelopes = bus._queues.get(queue, [])
        for index, envelope in enumerate(envelopes):
            if envelope.msg_id == msg_id:
                del envelopes[index]
                bus._stat(queue, "acked")
                return
        raise RecoveryError(
            "bus log replays ack of unknown message %s on %s"
            % (msg_id, queue)
        )
    if rtype == "nack":
        # The reservation being returned was never journaled; on
        # replay the envelope is already deliverable.  Keep the stat.
        bus._stat(queue, "nacked")
        return
    if rtype == "dead_letter":
        msg_id = record.get("msg_id", "")
        envelopes = bus._queues.get(queue, [])
        for index, envelope in enumerate(envelopes):
            if envelope.msg_id == msg_id:
                del envelopes[index]
                envelope.in_flight = False
                envelope.headers["dead-letter-reason"] = record.get(
                    "reason", ""
                )
                target = dlq_name(queue)
                bus._queues.setdefault(target, []).append(envelope)
                bus._stat(queue, "dead_lettered")
                bus._stat(target, "sent")
                return
        raise RecoveryError(
            "bus log replays dead_letter of unknown message %s on %s"
            % (msg_id, queue)
        )
    if rtype == "dlq_drain":
        drained = bus.dlq_drain(
            queue, requeue=bool(record.get("requeue", True))
        )
        expected = record.get("drained")
        if expected is not None and drained != expected:
            raise RecoveryError(
                "bus log replay diverged: dlq_drain(%s) moved %d "
                "messages, the record says %d" % (queue, drained, expected)
            )
        return
    if rtype == "recover_in_flight":
        # In-flight reservations are volatile; on replay there is
        # nothing to recover.  (No stat bucket either — parity with
        # the live operation.)
        return
    raise RecoveryError("bus log holds unknown record type %r" % rtype)


class BusLog:
    """One broker's durable directory: journal + checkpoints + epoch.

    Layout under ``directory``::

        EPOCH                 restart counter (bumped every open)
        buscheck-%08d.json    checkpoints, numbered by covered offset
        log/                  the journal's segment directory

    ``sync`` is the journal's durability policy
    (``always | batch | never``); ``checkpoint_every`` (records)
    arms :meth:`due` for the broker's automatic checkpointing;
    ``keep_checkpoints`` bounds retained snapshots (the newest may
    always be torn by a crash, so at least 2 are kept).
    """

    def __init__(
        self,
        directory: str | os.PathLike[str],
        *,
        sync: str = "always",
        checkpoint_every: int | None = None,
        keep_checkpoints: int = 2,
        segment_max_records: int | None = 1024,
        injector=None,
        obs=None,
    ):
        if checkpoint_every is not None and checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        if keep_checkpoints < 2:
            raise ValueError(
                "keep_checkpoints must be >= 2 (the newest checkpoint "
                "may be torn by the crash being recovered from)"
            )
        self._directory = os.fspath(directory)
        self._checkpoint_every = checkpoint_every
        self._log = CheckpointedLog(
            self._directory,
            journal_dirname=LOG_DIRNAME,
            checkpoint_prefix="buscheck-",
            offset_digits=8,
            keep_checkpoints=keep_checkpoints,
            injector=injector,
            sync=sync,
            segment_max_records=segment_max_records,
            obs=obs,
            record_types=BUS_RECORD_TYPES,
            fault_scope="buslog",
        )
        self.journal = self._log.journal
        self.epoch = self._bump_epoch()
        self._since_checkpoint = 0
        offsets = self._log.checkpoint_offsets()
        self._last_checkpoint_offset = offsets[-1] if offsets else None
        self.checkpoint_failures = 0

    # -- layout ---------------------------------------------------------

    @property
    def directory(self) -> str:
        return self._directory

    @property
    def sync(self) -> str:
        return self.journal.sync

    def _bump_epoch(self) -> int:
        """Read, increment and atomically rewrite the EPOCH file —
        each open of the durable directory is a new broker
        incarnation, observable by clients in the hello reply."""
        path = os.path.join(self._directory, EPOCH_NAME)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                prior = int(handle.read().strip() or 0)
        except (OSError, ValueError):
            prior = 0
        atomic_write(path, "%d\n" % (prior + 1))
        return prior + 1

    def set_injector(self, injector) -> None:
        """Swap the fault injector (``install_injector`` over the
        wire installs one after the broker already opened its log)."""
        self._log.set_injector(injector)

    # -- appends --------------------------------------------------------

    def record(self, record: dict[str, Any]) -> None:
        """Journal one state-mutating bus op (may raise
        :class:`~repro.errors.JournalError` — the broker treats a
        failing bus log as fatal, exactly like a failing disk)."""
        self.journal.append(record)
        self._since_checkpoint += 1

    def due(self) -> bool:
        """Whether the automatic checkpoint interval has elapsed."""
        return (
            self._checkpoint_every is not None
            and self._since_checkpoint >= self._checkpoint_every
        )

    # -- checkpoints ----------------------------------------------------

    def checkpoint(
        self, bus_state: dict[str, Any], sessions: dict[str, Any]
    ) -> int:
        """One durable snapshot of the whole broker state (the
        :class:`CheckpointedLog` protocol); returns the covered
        offset."""
        offset = self._log.checkpoint(
            {"bus": bus_state, "sessions": sessions}
        )
        self._last_checkpoint_offset = offset
        self._since_checkpoint = 0
        return offset

    # -- recovery -------------------------------------------------------

    def recover_into(self, bus: MessageBus) -> dict[str, Any]:
        """Rebuild the bus (queues, DLQ, stats, id counter) and the
        per-session dedup table from checkpoint + journal suffix;
        returns the recovery report the broker surfaces in its
        snapshot."""
        state, skipped = self._log.latest()
        offset = 0
        sessions: dict[str, Any] = {}
        restored = 0
        if state is not None:
            offset = int(state.get("offset", 0))
            restored = bus.restore_state(state.get("bus") or {})
            sessions = {
                name: dict(entry)
                for name, entry in (state.get("sessions") or {}).items()
            }
        suffix = self._log.suffix(offset)
        counter = bus._counter
        for record in suffix:
            replay_into(bus, record)
            for row in record.get("entries") or []:
                counter = max(counter, _msg_seq(row["msg_id"]) + 1)
            if record.get("msg_id"):
                counter = max(counter, _msg_seq(record["msg_id"]) + 1)
            session = record.get("client")
            if session and record.get("op_id"):
                # Re-insertion keeps the table's LRU order: the
                # broker's session cap evicts oldest-first.
                sessions.pop(session, None)
                sessions[session] = {
                    "op_id": record["op_id"],
                    "reply": record.get("reply"),
                }
        bus._counter = counter
        return {
            "checkpoint_offset": offset,
            "checkpoints_skipped": skipped,
            "restored_messages": restored,
            "replayed_records": len(suffix),
            "sessions": sessions,
        }

    # -- lifecycle / inspection ----------------------------------------

    def status(self) -> dict[str, Any]:
        """Durability status for the monitor's NET view."""
        offsets = self._log.checkpoint_offsets()
        return {
            "directory": self._directory,
            "epoch": self.epoch,
            "sync": self.sync,
            "records": self.journal.next_index,
            "unflushed": self.journal.unflushed(),
            "segments_live": self.journal.segments_live,
            "checkpoints": len(offsets),
            "last_checkpoint_offset": self._last_checkpoint_offset,
            "records_since_checkpoint": self._since_checkpoint,
            "checkpoint_failures": self.checkpoint_failures,
        }

    def flush(self) -> None:
        self.journal.flush()

    def close(self) -> None:
        self.journal.close()

    def abandon(self) -> None:
        """Release the journal without a final commit — the failing-
        disk path (a flush would only raise again)."""
        self.journal.abandon()
