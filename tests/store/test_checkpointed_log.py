"""The shared checkpointed-log facility, driven directly with a toy
state dict.  ``DurableStore`` (tests/store) and ``BusLog``
(tests/net/test_buslog.py) exercise the same code from each side."""

import json
import os

import pytest

from repro.errors import JournalError, RecoveryError
from repro.resilience import FaultInjector, FaultRule
from repro.store import CheckpointedLog, snapshot


def open_log(directory, **options):
    options.setdefault("keep_checkpoints", 2)
    return CheckpointedLog(
        str(directory),
        segments_dirname="log",
        checkpoint_prefix="toy-",
        offset_digits=6,
        record_types={"note"},
        fault_scope="buslog",
        **options,
    )


def note(log, count=1):
    for __ in range(count):
        log.journal.append({"type": "note", "n": log.journal.next_index})


def manifest_on_disk(log):
    path = os.path.join(log.journal.directory, "MANIFEST.json")
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def test_names_offsets_and_suffix(tmp_path):
    log = open_log(tmp_path)
    note(log, 3)
    assert log.checkpoint({"value": "a"}) == 3
    note(log, 2)
    assert os.path.basename(log.checkpoint_path(3)) == "toy-000003.json"
    assert log.checkpoint_offsets() == [3]
    state, skipped = log.latest()
    assert (state, skipped) == ({"value": "a", "offset": 3}, 0)
    assert [r["n"] for r in log.suffix(3)] == [3, 4]
    # files that merely look similar are not checkpoints
    (tmp_path / "toy-12.json").write_text("{}")
    (tmp_path / "toy-000009.json.tmp").write_text("{}")
    assert log.checkpoint_offsets() == [3]
    log.journal.close()


def test_protocol_order(tmp_path, disk_events):
    """The journal is durable before the snapshot that claims its
    offset lands, and the compaction's manifest commit comes last."""
    log = open_log(tmp_path, sync="never")
    note(log, 4)
    journal_fd = log.journal._file.fileno()
    del disk_events[:]
    log.checkpoint({"value": 1})
    events = list(disk_events)

    replaced = [name for kind, name in events if kind == "replace"]
    # rotation's manifest, the snapshot, compaction's manifest
    assert replaced == ["MANIFEST.json", "toy-000004.json", "MANIFEST.json"]
    landed = events.index(("replace", "toy-000004.json"))
    assert ("fsync", journal_fd) in events[:landed]
    assert manifest_on_disk(log)["compactions"] == 1
    log.journal.close()


def test_retires_beyond_keep(tmp_path):
    log = open_log(tmp_path, keep_checkpoints=2)
    for round_ in range(4):
        note(log)
        log.checkpoint({"value": round_})
    assert log.checkpoint_offsets() == [3, 4]
    assert sorted(p.name for p in tmp_path.glob("toy-*.json")) == [
        "toy-000003.json",
        "toy-000004.json",
    ]
    log.journal.close()


def test_falls_back_past_a_corrupt_newest(tmp_path):
    log = open_log(tmp_path)
    note(log)
    log.checkpoint({"value": "old"})
    note(log)
    newest = log.checkpoint({"value": "new"})
    with open(log.checkpoint_path(newest), "w", encoding="utf-8") as handle:
        handle.write('{"torn":')
    state, skipped = log.latest()
    assert (state["value"], state["offset"], skipped) == ("old", 1, 1)
    # and the fallback's suffix is all there
    assert [r["n"] for r in log.suffix(state["offset"])] == [1]
    log.journal.close()


def test_never_compacts_below_the_oldest_retained(tmp_path):
    log = open_log(tmp_path, keep_checkpoints=2, segment_max_records=2)
    for round_ in range(5):
        note(log, 3)
        log.checkpoint({"value": round_})
        oldest = log.checkpoint_offsets()[0]
        # everything the oldest retained snapshot needs, nothing less
        assert log.journal.indices() == list(
            range(oldest, log.journal.next_index)
        )
    assert log.checkpoint_offsets() == [12, 15]
    log.journal.close()


def test_keep_one_compacts_to_the_newest(tmp_path):
    log = open_log(tmp_path, keep_checkpoints=1)
    for round_ in range(3):
        note(log, 2)
        offset = log.checkpoint({"value": round_})
        assert log.checkpoint_offsets() == [offset]
        assert log.journal.indices() == []
    log.journal.close()


def test_compaction_can_be_left_to_the_caller(tmp_path):
    log = open_log(tmp_path)
    note(log, 3)
    log.checkpoint({"value": 1}, compact=False)
    assert log.journal.indices() == [0, 1, 2]
    stats = log.compact()
    assert stats["offset"] == 3 and stats["records_dropped"] == 3
    log.journal.close()


def test_standalone_compact_needs_a_valid_checkpoint(tmp_path):
    log = open_log(tmp_path)
    note(log, 2)
    with pytest.raises(RecoveryError):
        log.compact()
    offset = log.checkpoint({"value": 1}, compact=False)
    with open(log.checkpoint_path(offset), "w", encoding="utf-8") as handle:
        handle.write("{ torn")
    with pytest.raises(RecoveryError):
        log.compact()
    assert log.journal.indices() == [0, 1]
    log.journal.close()


def test_failed_compaction_leaves_the_old_manifest(tmp_path):
    """The ``compact`` site fires after the rewrite, before the
    manifest commit: the old manifest still names every segment."""
    injector = FaultInjector([FaultRule("compact", schedule={1})], seed=1)
    log = open_log(tmp_path, injector=injector, segment_max_records=2)
    note(log, 5)
    with pytest.raises(JournalError):
        log.checkpoint({"value": 1})
    manifest = manifest_on_disk(log)
    assert manifest["compactions"] == 0
    assert [e["first"] for e in manifest["segments"]] == [0, 2, 4, 5]
    log.journal.abandon()

    reopened = open_log(tmp_path)
    # the snapshot was durable before the compaction died
    state, skipped = reopened.latest()
    assert (state["offset"], skipped) == (5, 0)
    assert reopened.journal.indices() == [0, 1, 2, 3, 4]
    reopened.journal.close()


def test_torn_write_leaves_previous_checkpoint_and_journal(tmp_path):
    injector = FaultInjector(
        [FaultRule("snapshot.write", schedule={2})], seed=1
    )
    log = open_log(tmp_path, injector=injector)
    note(log, 2)
    log.checkpoint({"value": "good"})
    note(log, 2)
    with pytest.raises(JournalError):
        log.checkpoint({"value": "torn"})
    assert log.checkpoint_offsets() == [2, 4]  # the torn file is there
    state, skipped = log.latest()
    assert (state["value"], skipped) == ("good", 1)
    assert [r["n"] for r in log.suffix(2)] == [2, 3]
    log.journal.abandon()


@pytest.mark.parametrize("disk", ["truncated", "altered", "missing"])
def test_checkpoint_differing_on_disk_is_refused(tmp_path, monkeypatch, disk):
    """Step 4 reads the file back and compares it with what was
    written: a file that differs, or cannot be read, raises before any
    older checkpoint is retired or any journal segment compacted."""
    log = open_log(tmp_path, keep_checkpoints=1)
    note(log, 2)
    log.checkpoint({"value": "good"})
    with open(log.checkpoint_path(2), "rb") as handle:
        good = handle.read()
    note(log, 2)
    real_write = snapshot.atomic_write

    def differing(path, data):
        if disk == "truncated":
            real_write(path, data[:-10])
        elif disk == "altered":
            real_write(path, data.replace('"bad"', '"bac"'))

    monkeypatch.setattr(snapshot, "atomic_write", differing)
    with pytest.raises(RecoveryError, match="post-write verification"):
        log.checkpoint({"value": "bad"})
    monkeypatch.undo()
    assert log.checkpoint_offsets() == ([2] if disk == "missing" else [2, 4])
    with open(log.checkpoint_path(2), "rb") as handle:
        assert handle.read() == good
    state, skipped = log.latest()
    assert state["value"] == "good"
    assert [r["n"] for r in log.suffix(2)] == [2, 3]
    log.journal.close()


def test_constructor_data_reaches_the_journal(tmp_path):
    injector = FaultInjector(
        [FaultRule("buslog.append", "raise", schedule=frozenset({2}))], seed=0
    )
    log = open_log(tmp_path, injector=injector)
    note(log)
    with pytest.raises(JournalError):
        note(log)
    assert injector.trace() == [("buslog.append", "note", "raise", 2)]
    with pytest.raises(RecoveryError):
        log.journal.append({"type": "process_started"})
    log.journal.abandon()
