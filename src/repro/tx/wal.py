"""Write-ahead log.

Physical logging with before/after images, commit/abort records and
compensation log records (CLRs) written during undo, in the ARIES
style: the restart algorithm (:mod:`repro.tx.recovery`) repeats history
by redoing *all* updates, then undoes the losers.

Every record carries ``prev_lsn``, the LSN of the same transaction's
previous record (−1 at its BEGIN), so rollback and restart undo walk
one transaction's chain backwards instead of scanning the log.  The
log also keeps each unfinished transaction's newest LSN (ARIES's
transaction table); like the records, it lives on the simulated stable
storage, and it holds only transactions without a COMMIT or ABORT
record yet.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Any, Iterator

from repro.errors import TransactionError

#: Sentinel before/after image meaning "the key did not exist".
ABSENT = "__absent__"


class LogKind(Enum):
    BEGIN = "begin"
    UPDATE = "update"
    CLR = "clr"            # compensation log record (redo-only)
    COMMIT = "commit"
    ABORT = "abort"
    CHECKPOINT = "checkpoint"
    SAVEPOINT = "savepoint"  # partial-rollback watermark; no redo/undo


@dataclass(frozen=True)
class LogRecord:
    lsn: int
    kind: LogKind
    txn_id: str
    key: str = ""
    before: Any = None
    after: Any = None
    #: For CLRs: the LSN of the update this record compensates.
    undo_next: int = -1
    #: For CHECKPOINT: the ids of transactions active at the time.
    active: tuple[str, ...] = ()
    #: The LSN of this transaction's previous record; −1 at its BEGIN.
    prev_lsn: int = -1


class WriteAheadLog:
    """Append-only in-memory log with LSN addressing.

    The simulated "disk" for the log is this object itself: a database
    crash (:meth:`SimDatabase.crash`) drops the cache and the lock
    table but keeps the log, exactly like a real WAL on stable storage.
    """

    def __init__(self) -> None:
        self._records: list[LogRecord] = []
        #: txn id -> LSN of its newest record, for transactions with no
        #: COMMIT or ABORT record yet.
        self._heads: dict[str, int] = {}
        self._checkpoint_lsn = -1

    def append(
        self,
        kind: LogKind,
        txn_id: str,
        key: str = "",
        before: Any = None,
        after: Any = None,
        undo_next: int = -1,
        active: tuple[str, ...] = (),
    ) -> LogRecord:
        lsn = len(self._records)
        if kind is LogKind.CHECKPOINT:
            prev_lsn = -1
            self._checkpoint_lsn = lsn
        elif kind is LogKind.BEGIN:
            # A reused id starts a fresh chain: undo never reaches the
            # records of an earlier transaction that had the same id.
            prev_lsn = -1
            self._heads[txn_id] = lsn
        elif kind is LogKind.COMMIT or kind is LogKind.ABORT:
            prev_lsn = self._heads.pop(txn_id, -1)
        else:
            prev_lsn = self._heads.get(txn_id, -1)
            self._heads[txn_id] = lsn
        record = LogRecord(
            lsn, kind, txn_id, key, before, after, undo_next, active, prev_lsn
        )
        self._records.append(record)
        return record

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[LogRecord]:
        return iter(self._records)

    def record(self, lsn: int) -> LogRecord:
        try:
            return self._records[lsn]
        except IndexError:
            raise TransactionError("no log record with LSN %d" % lsn) from None

    def since(self, lsn: int) -> list[LogRecord]:
        """The records with LSN >= ``lsn``, oldest first."""
        return self._records[max(lsn, 0):]

    def head(self, txn_id: str) -> int:
        """The LSN of ``txn_id``'s newest record while it has no COMMIT
        or ABORT record; −1 otherwise."""
        return self._heads.get(txn_id, -1)

    def records_of(self, txn_id: str) -> list[LogRecord]:
        """Every record ever logged under ``txn_id`` (inspection only:
        a reused id returns earlier transactions' records too)."""
        return [r for r in self._records if r.txn_id == txn_id]

    def last_checkpoint(self) -> LogRecord | None:
        if self._checkpoint_lsn < 0:
            return None
        return self._records[self._checkpoint_lsn]
