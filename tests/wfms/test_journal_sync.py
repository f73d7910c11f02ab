"""Journal sync policies: group commit, flush barriers, and the
write-then-append durability fix."""

import pytest

from repro.errors import RecoveryError
from repro.store import DurableStore, SegmentedJournal
from repro.wfms.engine import Engine
from repro.wfms.model import Activity, ProcessDefinition

#: the active segment of a journal directory that never rotated
ACTIVE = "segment-00000000.jsonl"


def record(n: int) -> dict:
    return {"type": "process_finished", "instance": "pi-%04d" % n}


def durable_records(directory) -> list:
    """The durable records: what a restart reads back from disk."""
    with SegmentedJournal(directory) as journal:
        return journal.records()


def engine_journal(store_dir) -> str:
    """A store's journal directory."""
    return store_dir / "journal"


class TestSyncPolicyValidation:
    def test_unknown_policy_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            SegmentedJournal(tmp_path / "j", sync="sometimes")

    def test_bad_batch_size_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            SegmentedJournal(tmp_path / "j", sync="batch", batch_size=0)

    def test_default_is_always(self, tmp_path):
        journal = SegmentedJournal(tmp_path / "j")
        assert journal.sync == "always"
        engine = Engine(store=DurableStore(tmp_path / "e"))
        assert engine.journal.sync == "always"


class TestAlwaysPolicy:
    def test_every_append_is_durable(self, tmp_path):
        path = tmp_path / "j"
        journal = SegmentedJournal(path)
        for n in range(3):
            journal.append(record(n))
            assert len(durable_records(path)) == n + 1
        assert journal.unflushed() == 0


class TestGroupCommit:
    def test_batch_defers_until_size_threshold(self, tmp_path):
        path = tmp_path / "j"
        journal = SegmentedJournal(
            path, sync="batch", batch_size=5, batch_interval=3600
        )
        for n in range(4):
            journal.append(record(n))
        assert durable_records(path) == []          # nothing durable yet
        assert journal.unflushed() == 4
        assert len(journal.records()) == 4       # volatile view complete
        journal.append(record(4))                # hits the threshold
        assert len(durable_records(path)) == 5
        assert journal.unflushed() == 0

    def test_interval_elapse_commits(self, tmp_path):
        path = tmp_path / "j"
        journal = SegmentedJournal(
            path, sync="batch", batch_size=1000, batch_interval=0.0
        )
        journal.append(record(0))
        assert len(durable_records(path)) == 1

    def test_flush_is_the_durability_barrier(self, tmp_path):
        path = tmp_path / "j"
        journal = SegmentedJournal(
            path, sync="batch", batch_size=100, batch_interval=3600
        )
        for n in range(7):
            journal.append(record(n))
        assert durable_records(path) == []
        journal.flush()
        assert len(durable_records(path)) == 7
        assert journal.unflushed() == 0

    def test_close_commits_the_tail(self, tmp_path):
        path = tmp_path / "j"
        with SegmentedJournal(
            path, sync="batch", batch_size=100, batch_interval=3600
        ) as journal:
            journal.append(record(0))
        assert len(durable_records(path)) == 1

    def test_hard_crash_loses_at_most_the_unflushed_suffix(self, tmp_path):
        """The durable file is always a prefix of the volatile record
        list; a hard crash (no flush) loses exactly the buffered tail."""
        path = tmp_path / "j"
        journal = SegmentedJournal(
            path, sync="batch", batch_size=3, batch_interval=3600
        )
        for n in range(8):
            journal.append(record(n))
        durable = durable_records(path)         # simulated hard crash: read
        volatile = journal.records()         # what the engine believed
        assert len(durable) == 6             # two full batches of 3
        assert durable == volatile[: len(durable)]
        assert journal.unflushed() == len(volatile) - len(durable) == 2

    def test_never_policy_defers_to_flush(self, tmp_path):
        path = tmp_path / "j"
        journal = SegmentedJournal(path, sync="never")
        journal.append(record(0))
        journal.flush()
        assert len(durable_records(path)) == 1


def register_chain(engine):
    engine.register_program("p", lambda ctx: 0)
    d = ProcessDefinition("Chain")
    d.add_activity(Activity("A", program="p"))
    d.add_activity(Activity("B", program="p"))
    d.add_activity(Activity("C", program="p"))
    d.connect("A", "B")
    d.connect("B", "C")
    engine.register_definition(d)


class TestEngineIntegration:
    def test_batch_engine_recovers_from_durable_prefix(self, tmp_path):
        """A hard-crashed group-commit engine recovers the consistent
        durable prefix; the lost suffix is simply re-executed work."""
        path = tmp_path / "e"
        engine = Engine(
            store=DurableStore(
                path, sync="batch", batch_size=3, batch_interval=3600
            )
        )
        register_chain(engine)
        iid = engine.start_process("Chain")
        engine.run()
        total = len(engine.journal.records())
        lost = engine.journal.unflushed()
        assert lost > 0                       # a suffix really is volatile
        del engine                            # hard crash: no flush/close

        durable = durable_records(engine_journal(path))
        assert len(durable) == total - lost

        fresh = Engine(store=DurableStore(path))
        register_chain(fresh)
        fresh.recover()
        # The durable prefix replays cleanly; interrupted work is ready
        # to be re-executed, after which the instance finishes again.
        fresh.run()
        assert fresh.instance_state(iid) == "finished"

    def test_always_engine_loses_nothing(self, tmp_path):
        path = tmp_path / "e"
        engine = Engine(store=DurableStore(path))  # default sync="always"
        register_chain(engine)
        # Crash with both instances live, three completions in: a
        # finished instance is archived, and recovery never replays
        # archived roots.
        iid = engine.start_process("Chain")
        other = engine.start_process("Chain")
        for __ in range(3):
            engine.step()
        total = len(engine.journal.records())
        assert engine.journal.unflushed() == 0
        del engine                             # hard crash

        assert len(durable_records(engine_journal(path))) == total
        fresh = Engine(store=DurableStore(path))
        register_chain(fresh)
        replayed = fresh.recover()
        assert replayed == 3                   # A, A, B completions
        fresh.run()
        assert fresh.instance_state(iid) == "finished"
        assert fresh.instance_state(other) == "finished"

    def test_orderly_crash_flushes_batch_tail(self, tmp_path):
        path = tmp_path / "e"
        engine = Engine(
            store=DurableStore(
                path, sync="batch", batch_size=1000, batch_interval=3600
            )
        )
        register_chain(engine)
        iid = engine.start_process("Chain")
        engine.run()
        total = len(engine.journal.records())
        engine.crash()                         # orderly: flush + close
        assert len(durable_records(engine_journal(path))) == total
        fresh = Engine(store=DurableStore(path))
        register_chain(fresh)
        fresh.recover()
        assert fresh.instance_state(iid) == "finished"


class _FailingFile:
    """File stand-in whose write always fails (disk full)."""

    def write(self, data):
        raise OSError("disk full")

    def flush(self):
        raise AssertionError("flush should not be reached")

    def fileno(self):
        raise AssertionError("fsync should not be reached")

    def close(self):
        pass


class TestWriteThenAppend:
    def test_failed_disk_write_does_not_corrupt_memory(self, tmp_path):
        path = tmp_path / "j"
        journal = SegmentedJournal(path)
        journal.append(record(0))
        journal._file = _FailingFile()         # simulate disk failure
        with pytest.raises(OSError):
            journal.append(record(1))
        # Memory must not claim the record that never became durable.
        assert journal.records() == [record(0)]
        assert len(journal) == 1

    def test_illegal_record_type_still_rejected_before_any_write(
        self, tmp_path
    ):
        journal = SegmentedJournal(tmp_path / "j")
        with pytest.raises(RecoveryError):
            journal.append({"type": "bogus"})
        assert journal.records() == []


class TestCorruptionDetection:
    """A decode error is a clean crash signature only on the *last*
    non-empty line; mid-file corruption is flagged, never skipped."""

    def test_torn_final_line_is_tolerated(self, tmp_path):
        path = tmp_path / "j"
        journal = SegmentedJournal(path)
        journal.append(record(0))
        journal.append(record(1))
        journal.close()
        with open(path / ACTIVE, "a", encoding="utf-8") as handle:
            handle.write('{"type": "process_fin')  # crash mid-append
        assert durable_records(path) == [record(0), record(1)]

    def test_midfile_corruption_raises(self, tmp_path):
        """Regression: a corrupted record *followed by durable data*
        used to be silently swallowed, replaying a journal that lies."""
        path = tmp_path / "j"
        journal = SegmentedJournal(path)
        for n in range(3):
            journal.append(record(n))
        journal.close()
        active = path / ACTIVE
        lines = active.read_text(encoding="utf-8").splitlines(True)
        lines[1] = lines[1][: len(lines[1]) // 2] + "\n"  # torn mid-file
        active.write_text("".join(lines), encoding="utf-8")
        with pytest.raises(RecoveryError, match="followed by durable data"):
            durable_records(path)

    def test_trailing_blank_lines_do_not_hide_corruption(self, tmp_path):
        path = tmp_path / "j"
        SegmentedJournal(path).close()
        (path / ACTIVE).write_text('{"type": "proc\n\n\n', encoding="utf-8")
        # the torn record *is* the last non-empty line: clean signature
        assert durable_records(path) == []

    def test_non_object_record_rejected(self, tmp_path):
        path = tmp_path / "j"
        SegmentedJournal(path).close()
        (path / ACTIVE).write_text('[1, 2]\n{"type": "process_finished"}\n')
        with pytest.raises(RecoveryError, match="malformed journal record"):
            durable_records(path)
