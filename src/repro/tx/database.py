"""SimDatabase — a transactional key-value store.

Provides exactly what the paper's subtransactions need from a resource
manager: ACID transactions with begin/read/write/delete/commit/abort,
strict 2PL isolation, WAL-based atomicity and durability, crash and
restart with ARIES-style recovery, and hooks for failure injection
(unilateral aborts — the multidatabase behaviour Flexible Transactions
are designed around).

Storage model: a "disk" dict plus a dirty-page cache.  Writes go to
the cache after their UPDATE record is logged (WAL rule); a background
"flusher" is simulated by :meth:`SimDatabase.flush`, which may flush
*uncommitted* data (steal) — recovery undoes it.  Commit forces the
log only (no-force): committed data not yet flushed is redone.
"""

from __future__ import annotations

from enum import Enum
from typing import Any, Callable, Iterator

from repro.errors import (
    DatabaseCrashed,
    InvalidTransactionState,
    TransactionAborted,
    TransactionError,
)
from repro.tx.lockmgr import LockManager, LockMode
from repro.tx.wal import ABSENT, LogKind, WriteAheadLog


class TxnState(Enum):
    ACTIVE = "active"
    COMMITTED = "committed"
    ABORTED = "aborted"


class Transaction:
    """One transaction against one :class:`SimDatabase`."""

    def __init__(self, database: "SimDatabase", txn_id: str):
        self._db = database
        self.txn_id = txn_id
        self.state = TxnState.ACTIVE
        self.reads = 0
        self.writes = 0
        #: savepoint name -> watermark LSN (updates with a larger LSN
        #: are undone by rollback_to_savepoint).
        self._savepoints: dict[str, int] = {}

    # -- operations -------------------------------------------------------

    def read(self, key: str, default: Any = None) -> Any:
        self._check_active()
        self._db._check_up()
        self._db.locks.acquire(self.txn_id, key, LockMode.SHARED)
        self.reads += 1
        return self._db._get(key, default)

    def write(self, key: str, value: Any) -> None:
        self._check_active()
        self._db._check_up()
        self._db.locks.acquire(self.txn_id, key, LockMode.EXCLUSIVE)
        before = self._db._get(key, ABSENT)
        self._db.log.append(
            LogKind.UPDATE, self.txn_id, key, before=before, after=value
        )
        self._db._put(key, value)
        self.writes += 1

    def delete(self, key: str) -> None:
        self.write(key, ABSENT)

    def increment(self, key: str, delta: float | int) -> Any:
        """Read-modify-write convenience (the banking workload)."""
        value = self.read(key, 0)
        if not isinstance(value, (int, float)):
            raise TransactionError("cannot increment %r value %r" % (key, value))
        updated = value + delta
        self.write(key, updated)
        return updated

    # -- savepoints ---------------------------------------------------------

    def savepoint(self, name: str) -> None:
        """Mark a partial-rollback point.  Re-using a name moves it."""
        self._check_active()
        self._db._check_up()
        record = self._db.log.append(LogKind.SAVEPOINT, self.txn_id, name)
        self._savepoints[name] = record.lsn

    def rollback_to_savepoint(self, name: str) -> None:
        """Undo every update logged after the savepoint.

        Locks taken since the savepoint stay held (standard SQL
        semantics: partial rollback does not release locks).  The
        savepoint survives, so it can be rolled back to again;
        savepoints established after it are discarded.
        """
        self._check_active()
        self._db._check_up()
        watermark = self._savepoints.get(name)
        if watermark is None:
            raise TransactionError(
                "transaction %s has no savepoint %r" % (self.txn_id, name)
            )
        self._db._undo(self.txn_id, after_lsn=watermark)
        self._savepoints = {
            n: lsn for n, lsn in self._savepoints.items() if lsn <= watermark
        }

    # -- outcome ------------------------------------------------------------

    def commit(self) -> None:
        self._check_active()
        self._db._check_up()
        self._db._maybe_unilateral_abort(self)
        self._db.log.append(LogKind.COMMIT, self.txn_id)
        self.state = TxnState.COMMITTED
        self._db._end(self)

    def abort(self, reason: str = "user abort") -> None:
        self._check_active()
        self._db._check_up()
        self._db._undo(self.txn_id)
        self._db.log.append(LogKind.ABORT, self.txn_id)
        self.state = TxnState.ABORTED
        self._db._end(self)

    # -- context manager: commit on success, abort on error ---------------------

    def __enter__(self) -> "Transaction":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if self.state is not TxnState.ACTIVE:
            return False
        if exc_type is None:
            self.commit()
            return False
        self.abort(reason=str(exc))
        return False

    def _check_active(self) -> None:
        if self.state is not TxnState.ACTIVE:
            raise InvalidTransactionState(
                "transaction %s is %s" % (self.txn_id, self.state.value)
            )


class SimDatabase:
    """A named transactional store."""

    def __init__(self, name: str = "db", *, lock_timeout: float = 5.0):
        self.name = name
        self.log = WriteAheadLog()
        self.locks = LockManager(timeout=lock_timeout)
        self._disk: dict[str, Any] = {}
        self._cache: dict[str, Any] = {}
        self._active: dict[str, Transaction] = {}
        self._sequence = 0
        self._up = True
        self.commits = 0
        self.aborts = 0
        #: Called at commit time; raising TransactionAborted models a
        #: unilateral local abort (set by failure injection).
        self.on_commit: Callable[[Transaction], None] | None = None

    # -- transactions -----------------------------------------------------------

    def begin(self, txn_id: str = "") -> Transaction:
        self._check_up()
        if not txn_id:
            self._sequence += 1
            txn_id = "%s-t%05d" % (self.name, self._sequence)
        if txn_id in self._active:
            raise TransactionError("transaction id %r already active" % txn_id)
        txn = Transaction(self, txn_id)
        self._active[txn_id] = txn
        self.log.append(LogKind.BEGIN, txn_id)
        return txn

    def active_transactions(self) -> list[str]:
        return sorted(self._active)

    def active_transaction(self, txn_id: str) -> Transaction | None:
        """The live :class:`Transaction` object, or None."""
        return self._active.get(txn_id)

    # -- non-transactional inspection (tests/benchmarks) -------------------------

    def get(self, key: str, default: Any = None) -> Any:
        """Read the current (possibly uncommitted) value, no locking."""
        self._check_up()
        return self._get(key, default)

    def stable_get(self, key: str, default: Any = None) -> Any:
        """Read what is on "disk" (survives a crash before recovery)."""
        value = self._disk.get(key, ABSENT)
        return default if value is ABSENT else value

    def keys(self) -> Iterator[str]:
        self._check_up()
        seen = set()
        for key, value in {**self._disk, **self._cache}.items():
            if value is not ABSENT and key not in seen:
                seen.add(key)
                yield key

    def snapshot(self) -> dict[str, Any]:
        self._check_up()
        merged = {**self._disk, **self._cache}
        return {k: v for k, v in merged.items() if v is not ABSENT}

    # -- buffer management --------------------------------------------------------

    def flush(self, key: str | None = None) -> int:
        """Flush cache entries to disk (steal: even uncommitted ones).

        Returns the number of entries flushed.
        """
        self._check_up()
        keys = [key] if key is not None else list(self._cache)
        flushed = 0
        for k in keys:
            if k in self._cache:
                self._disk[k] = self._cache.pop(k)
                flushed += 1
        return flushed

    def checkpoint(self) -> None:
        """Flush everything and log a checkpoint record."""
        self.flush()
        self.log.append(
            LogKind.CHECKPOINT, "", active=tuple(sorted(self._active))
        )

    # -- crash / restart ------------------------------------------------------------

    def crash(self) -> None:
        """Lose the cache, the lock table and all active transactions;
        the log and the disk survive."""
        self._cache.clear()
        for txn in self._active.values():
            txn.state = TxnState.ABORTED
        self._active.clear()
        self.locks = LockManager()
        self._up = False

    def restart(self) -> dict[str, int]:
        """Run restart recovery; returns counters (see
        :func:`repro.tx.recovery.restart`)."""
        from repro.tx.recovery import restart

        stats = restart(self)
        self._up = True
        return stats

    # -- internals (used by Transaction and recovery) ----------------------------------

    def _get(self, key: str, default: Any) -> Any:
        if key in self._cache:
            value = self._cache[key]
        else:
            value = self._disk.get(key, ABSENT)
        return default if value is ABSENT else value

    def _put(self, key: str, value: Any) -> None:
        self._cache[key] = value

    def _undo(self, txn_id: str, after_lsn: int = -1) -> None:
        """Roll back ``txn_id`` using before-images, logging CLRs.

        Walks the transaction's ``prev_lsn`` chain from its newest
        record, so the cost is its own record count, not the log's.
        ``after_lsn`` bounds the undo for partial rollback: the walk
        stops at that LSN.  Updates already compensated by an earlier
        partial rollback are skipped: their CLRs come later in the
        chain, so the walk meets them first.
        """
        log = self.log
        compensated: set[int] = set()
        lsn = log.head(txn_id)
        while lsn > after_lsn:
            record = log.record(lsn)
            if record.kind is LogKind.CLR:
                compensated.add(record.undo_next)
            elif record.kind is LogKind.UPDATE and lsn not in compensated:
                log.append(
                    LogKind.CLR,
                    txn_id,
                    record.key,
                    after=record.before,
                    undo_next=lsn,
                )
                self._put(record.key, record.before)
            lsn = record.prev_lsn

    def _end(self, txn: Transaction) -> None:
        self.locks.release_all(txn.txn_id)
        self._active.pop(txn.txn_id, None)
        if txn.state is TxnState.COMMITTED:
            self.commits += 1
        else:
            self.aborts += 1

    def _maybe_unilateral_abort(self, txn: Transaction) -> None:
        if self.on_commit is None:
            return
        try:
            self.on_commit(txn)
        except TransactionAborted:
            self._undo(txn.txn_id)
            self.log.append(LogKind.ABORT, txn.txn_id)
            txn.state = TxnState.ABORTED
            self._end(txn)
            raise

    def _check_up(self) -> None:
        if not self._up:
            raise DatabaseCrashed(
                "database %s is down; call restart() first" % self.name
            )
