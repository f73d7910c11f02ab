"""ARIES-style restart recovery for :class:`SimDatabase`.

Three passes over the write-ahead log:

1. **Analysis** — find winners (transactions with a COMMIT record) and
   losers (BEGIN but neither COMMIT nor ABORT-completed); a checkpoint
   record, when present, bounds how far back analysis must look for
   the active set.
2. **Redo** — repeat history: re-apply *every* UPDATE and CLR after
   image to the disk in LSN order (the cache was lost; the disk may be
   arbitrarily stale because commit does not force pages).
3. **Undo** — roll back the losers from the log tail using before
   images, following each loser's ``prev_lsn`` chain, appending CLRs
   so a crash during recovery is itself recoverable; finish each loser
   with an ABORT record.
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING

from repro.tx.wal import ABSENT, LogKind

if TYPE_CHECKING:  # pragma: no cover
    from repro.tx.database import SimDatabase


def restart(database: "SimDatabase") -> dict[str, int]:
    """Recover ``database`` in place; returns pass counters."""
    log = database.log
    # A checkpoint flushes every dirty page, so analysis and redo start
    # right after the most recent one; the checkpoint record carries
    # the then-active transactions.
    checkpoint = log.last_checkpoint()
    suffix = log.since(checkpoint.lsn + 1 if checkpoint is not None else 0)
    # ---- analysis (a reused id counts as its latest transaction) ----
    begun: set[str] = set(checkpoint.active) if checkpoint else set()
    finished: set[str] = set()
    for record in suffix:
        if record.kind is LogKind.BEGIN:
            begun.add(record.txn_id)
            finished.discard(record.txn_id)
        elif record.kind in (LogKind.COMMIT, LogKind.ABORT):
            finished.add(record.txn_id)
    losers = begun - finished
    # ---- redo: repeat history (from the checkpoint onwards) ----
    redone = 0
    for record in suffix:
        if record.kind is LogKind.UPDATE or record.kind is LogKind.CLR:
            _apply(database, record.key, record.after)
            redone += 1
    # ---- undo the losers, newest record first across all losers ----
    # Each loser's prev_lsn chain, merged by a max-heap on LSN.  CLRs
    # already written for a loser (e.g. crash mid-abort) come after
    # the updates they compensate, so the walk meets them first.
    undone = 0
    heap = [-lsn for lsn in map(log.head, losers) if lsn >= 0]
    heapq.heapify(heap)
    compensated: set[int] = set()
    while heap:
        record = log.record(-heapq.heappop(heap))
        if record.prev_lsn >= 0:
            heapq.heappush(heap, -record.prev_lsn)
        if record.kind is LogKind.CLR:
            compensated.add(record.undo_next)
        elif record.kind is LogKind.UPDATE and record.lsn not in compensated:
            log.append(
                LogKind.CLR,
                record.txn_id,
                record.key,
                after=record.before,
                undo_next=record.lsn,
            )
            _apply(database, record.key, record.before)
            undone += 1
    for txn_id in sorted(losers):
        log.append(LogKind.ABORT, txn_id)
    return {
        "winners": len(begun & finished),
        "losers": len(losers),
        "redone": redone,
        "undone": undone,
    }


def _apply(database: "SimDatabase", key: str, value: object) -> None:
    if value is ABSENT:
        database._disk.pop(key, None)
    else:
        database._disk[key] = value
