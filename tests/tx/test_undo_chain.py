"""The WAL's per-transaction undo chain (ARIES ``prevLSN``).

Rollback and restart undo walk one transaction's ``prev_lsn`` chain,
so their cost is that transaction's own record count, whatever the
log's length — and a reused transaction id never reaches back into
the earlier transaction's records.
"""

import pytest

from repro.tx import ScopeManager, SimDatabase
from repro.tx.wal import LogKind


def grow_log(db, records):
    """Log committed filler transactions (history the database has
    long since applied) until the WAL holds ``records`` records."""
    log = db.log
    while len(log) + 3 <= records:
        txn_id = "filler-%d" % len(log)
        log.append(LogKind.BEGIN, txn_id)
        log.append(LogKind.UPDATE, txn_id, "filler", after=len(log))
        log.append(LogKind.COMMIT, txn_id)


def count_reads(monkeypatch, db):
    """Count the records the undo walk reads (``WriteAheadLog.record``
    is the one accessor it uses)."""
    reads = []
    record = db.log.record

    def spy(lsn):
        reads.append(lsn)
        return record(lsn)

    monkeypatch.setattr(db.log, "record", spy)
    return reads


class TestChain:
    def test_prev_lsn_links_one_transactions_records(self):
        db = SimDatabase()
        t1 = db.begin()
        t2 = db.begin()
        t1.write("a", 1)
        t2.write("b", 2)
        t1.write("c", 3)
        t1.commit()
        chain = [(r.kind, r.prev_lsn) for r in db.log if r.txn_id == t1.txn_id]
        assert chain == [
            (LogKind.BEGIN, -1),
            (LogKind.UPDATE, 0),
            (LogKind.UPDATE, 2),
            (LogKind.COMMIT, 4),
        ]

    def test_head_map_holds_only_unfinished_transactions(self):
        db = SimDatabase()
        for __ in range(50):
            with db.begin() as txn:
                txn.write("k", 1)
        aborted = db.begin()
        aborted.write("k", 2)
        aborted.abort()
        live = db.begin()
        live.write("k", 3)
        assert db.log._heads == {live.txn_id: len(db.log) - 1}
        assert db.log.head(aborted.txn_id) == -1

    def test_abort_and_restart_never_scan_the_log(self, monkeypatch):
        db = SimDatabase()
        grow_log(db, 300)

        def scan(txn_id):
            raise AssertionError("records_of on the undo path")

        monkeypatch.setattr(db.log, "records_of", scan)
        txn = db.begin()
        txn.write("x", 1)
        txn.abort()
        loser = db.begin()
        loser.write("y", 1)
        db.crash()
        db.restart()
        assert db.get("x") is None and db.get("y") is None


@pytest.mark.parametrize("history", [0, 32_000])
class TestUndoVisitsOwnRecordsOnly:
    def test_abort(self, monkeypatch, history):
        db = SimDatabase()
        grow_log(db, history)
        txn = db.begin()
        for index in range(5):
            txn.write("k%d" % index, index)
        own = len(db.log.records_of(txn.txn_id))
        reads = count_reads(monkeypatch, db)
        txn.abort()
        assert len(reads) == own == 6
        assert all(db.get("k%d" % i) is None for i in range(5))

    def test_savepoint_rollback(self, monkeypatch, history):
        db = SimDatabase()
        grow_log(db, history)
        txn = db.begin()
        txn.write("a", 1)
        txn.savepoint("sp")
        txn.write("b", 2)
        txn.write("c", 3)
        reads = count_reads(monkeypatch, db)
        txn.rollback_to_savepoint("sp")
        assert len(reads) == 2  # the two updates after the watermark
        assert (db.get("a"), db.get("b"), db.get("c")) == (1, None, None)

    def test_restart_undo(self, monkeypatch, history):
        db = SimDatabase()
        grow_log(db, history)
        db.checkpoint()
        loser = db.begin()
        loser.write("x", 1)
        loser.write("y", 2)
        own = len(db.log.records_of(loser.txn_id))
        db.crash()
        reads = count_reads(monkeypatch, db)
        stats = db.restart()
        assert len(reads) == own == 3
        assert stats["losers"] == 1 and stats["undone"] == 2


class TestReusedTransactionId:
    """Regression: undo used to collect every record ever logged under
    the id, so aborting a second transaction with a reused id undid the
    first, committed one as well."""

    def test_abort_spares_the_earlier_committed_transaction(self):
        db = SimDatabase()
        txn = db.begin("x")
        txn.write("k", 1)
        txn.commit()
        txn = db.begin("x")
        txn.write("j", 5)
        txn.abort()
        assert db.get("k") == 1
        assert db.get("j") is None

    def test_restart_undoes_only_the_latest_transaction(self):
        db = SimDatabase()
        with db.begin("x") as txn:
            txn.write("k", 1)
        db.checkpoint()
        with db.begin("x") as txn:
            txn.write("k", 2)
        loser = db.begin("x")
        loser.write("j", 5)
        db.flush()
        db.crash()
        stats = db.restart()
        assert stats["losers"] == 1 and stats["undone"] == 1
        assert db.get("k") == 2
        assert db.get("j") is None

    def test_rebuilt_scope_manager_reusing_a_handle(self):
        db = SimDatabase()
        first = ScopeManager(db)
        scope = first.begin("root-1")
        scope.write("balance", 100)
        scope.commit()
        # A rebuilt engine's manager numbers its scopes from the start
        # again, so its first scope reuses the committed one's handle.
        second = ScopeManager(db)
        again = second.begin("root-2")
        assert again.handle == scope.handle
        again.write("balance", 0)
        again.rollback()
        assert db.get("balance") == 100
