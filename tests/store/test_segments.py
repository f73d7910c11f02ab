"""Segmented journal: rotation, crash-safe manifests, compaction."""

import json
import os

import pytest

from repro.errors import RecoveryError
from repro.store.segments import MANIFEST_NAME, SegmentedJournal


def record(n, instance="pi-0001"):
    return {
        "type": "activity_completed",
        "instance": instance,
        "activity": "A%d" % n,
        "attempt": 1,
    }


def fill(journal, count, instance="pi-0001"):
    for n in range(count):
        journal.append(record(n, instance))


class TestSegments:
    def test_rotation_seals_and_indices_are_global(self, tmp_path):
        journal = SegmentedJournal(tmp_path)
        fill(journal, 3)
        journal.rotate()
        fill(journal, 2)
        assert journal.next_index == 5
        assert journal.segments_live == 2
        manifest = journal.manifest()
        sealed, active = manifest["segments"]
        assert sealed["first"] == 0 and sealed["count"] == 3
        assert active["first"] == 3 and active["count"] is None
        journal.close()

        reloaded = SegmentedJournal(tmp_path)
        assert reloaded.next_index == 5
        assert reloaded.records() == [record(n) for n in range(3)] + [
            record(n) for n in range(2)
        ]
        reloaded.close()

    def test_suffix_is_offset_aware(self, tmp_path):
        journal = SegmentedJournal(tmp_path)
        fill(journal, 6)
        journal.rotate()
        fill(journal, 2)
        assert journal.suffix(6) == [record(0), record(1)]
        assert journal.suffix(0) == journal.records()
        assert journal.suffix(99) == []
        journal.close()

    def test_empty_rotation_is_noop(self, tmp_path):
        journal = SegmentedJournal(tmp_path)
        journal.rotate()
        assert journal.segments_live == 1
        journal.close()

    def test_auto_rotation_at_segment_max(self, tmp_path):
        journal = SegmentedJournal(tmp_path, segment_max_records=2)
        fill(journal, 5)
        assert journal.segments_live == 3  # 2 + 2 + active(1)
        journal.close()

    def test_torn_active_tail_tolerated(self, tmp_path):
        journal = SegmentedJournal(tmp_path)
        fill(journal, 2)
        active = journal.manifest()["segments"][-1]["file"]
        journal.abandon()
        with open(tmp_path / active, "a", encoding="utf-8") as handle:
            handle.write('{"type": "activity_co')  # crash mid-append
        reloaded = SegmentedJournal(tmp_path)
        assert reloaded.next_index == 2
        reloaded.close()

    def test_corrupt_sealed_segment_raises(self, tmp_path):
        journal = SegmentedJournal(tmp_path)
        fill(journal, 3)
        journal.rotate()
        sealed = journal.manifest()["segments"][0]["file"]
        journal.close()
        path = tmp_path / sealed
        lines = path.read_text(encoding="utf-8").splitlines(True)
        lines[1] = lines[1][:10] + "\n"
        path.write_text("".join(lines), encoding="utf-8")
        with pytest.raises(RecoveryError):
            SegmentedJournal(tmp_path)

    def test_sealed_count_mismatch_raises(self, tmp_path):
        journal = SegmentedJournal(tmp_path)
        fill(journal, 3)
        journal.rotate()
        sealed = journal.manifest()["segments"][0]["file"]
        journal.close()
        path = tmp_path / sealed
        lines = path.read_text(encoding="utf-8").splitlines(True)
        path.write_text("".join(lines[:-1]), encoding="utf-8")  # lost record
        with pytest.raises(RecoveryError, match="count"):
            SegmentedJournal(tmp_path)

    def test_corrupt_manifest_raises(self, tmp_path):
        journal = SegmentedJournal(tmp_path)
        fill(journal, 1)
        journal.close()
        (tmp_path / MANIFEST_NAME).write_text('{"format": 99}')
        with pytest.raises(RecoveryError):
            SegmentedJournal(tmp_path)


class TestCompaction:
    def build(self, tmp_path):
        """Three sealed segments (0-2, 3-5, 6-8) + active (9-10),
        instance pi-0002's records interleaved in the second."""
        journal = SegmentedJournal(tmp_path)
        fill(journal, 3, "pi-0001")
        journal.rotate()
        journal.append(record(3, "pi-0001"))
        journal.append(record(4, "pi-0002"))
        journal.append(record(5, "pi-0002"))
        journal.rotate()
        fill(journal, 3, "pi-0003")
        journal.rotate()
        fill(journal, 2, "pi-0004")
        return journal

    def test_whole_segments_dropped(self, tmp_path):
        journal = self.build(tmp_path)
        stats = journal.compact(6)
        assert stats["segments_dropped"] == 2
        assert stats["records_dropped"] == 6
        assert journal.suffix(6) == journal.records()
        assert journal.next_index == 11
        journal.close()
        reloaded = SegmentedJournal(tmp_path)
        assert len(reloaded.records()) == 5
        assert reloaded.suffix(6)[0] == record(0, "pi-0003")
        reloaded.close()

    def test_straddler_kept_whole(self, tmp_path):
        journal = self.build(tmp_path)
        # offset 4 falls inside the second segment (3-5): only the
        # first segment is wholly covered, the straddler stays as is
        stats = journal.compact(4)
        assert stats["segments_dropped"] == 1
        assert stats["records_dropped"] == 3
        assert journal.indices() == list(range(3, 11))
        assert journal.suffix(4) == journal.records()[1:]
        assert journal.suffix(4)[0] == record(4, "pi-0002")
        files = sorted(os.listdir(tmp_path))
        assert "segment-00000001.jsonl" in files
        assert not [name for name in files if ".c" in name]
        journal.close()
        reloaded = SegmentedJournal(tmp_path)
        assert reloaded.records() == journal.records()
        assert reloaded.suffix(4) == journal.suffix(4)
        assert reloaded.next_index == 11
        reloaded.close()

    def test_sparse_segment_round_trips(self, tmp_path):
        """A sparse segment (``{"i", "r"}`` rows, holes in the index
        sequence), as earlier versions' compaction wrote it, loads,
        serves suffixes, keeps the global index going, and is retired
        whole."""
        (tmp_path / MANIFEST_NAME).write_text(
            json.dumps(
                {
                    "compactions": 1,
                    "format": 1,
                    "segments": [
                        {
                            "count": 2,
                            "file": "segment-00000001.c1.jsonl",
                            "first": 4,
                            "id": 1,
                            "last": 5,
                            "sparse": True,
                        },
                        {
                            "count": None,
                            "file": "segment-00000002.jsonl",
                            "first": 6,
                            "id": 2,
                            "sparse": False,
                        },
                    ],
                },
                sort_keys=True,
            )
            + "\n",
            encoding="utf-8",
        )
        (tmp_path / "segment-00000001.c1.jsonl").write_text(
            "".join(
                json.dumps({"i": n, "r": record(n, "pi-0002")}) + "\n"
                for n in (4, 5)
            ),
            encoding="utf-8",
        )
        (tmp_path / "segment-00000002.jsonl").write_text(
            json.dumps(record(6, "pi-0003")) + "\n", encoding="utf-8"
        )
        journal = SegmentedJournal(tmp_path)
        assert journal.indices() == [4, 5, 6]
        assert journal.suffix(5) == [
            record(5, "pi-0002"),
            record(6, "pi-0003"),
        ]
        # appending continues from the same global index
        journal.append(record(99))
        assert journal.next_index == 8
        journal.rotate()
        stats = journal.compact(6)
        assert (stats["segments_dropped"], stats["records_dropped"]) == (1, 2)
        assert journal.indices() == [6, 7]
        journal.close()
        reloaded = SegmentedJournal(tmp_path)
        assert reloaded.records() == [record(6, "pi-0003"), record(99)]
        assert "segment-00000001.c1.jsonl" not in os.listdir(tmp_path)
        reloaded.close()

    def test_compact_is_crash_safe_manifest_last(self, tmp_path):
        """A compaction that dies before the manifest commit leaves the
        old manifest pointing at intact old files: reload sees the
        pre-compaction journal, and a file the manifest does not name
        (here the rewrite an earlier version's aborted compaction
        left) is ignored."""
        journal = self.build(tmp_path)
        before = journal.records()
        journal.close()
        # never touch the manifest
        orphan = tmp_path / "segment-00000001.c1.jsonl"
        orphan.write_text(
            json.dumps({"i": 4, "r": record(4, "pi-0002")}) + "\n",
            encoding="utf-8",
        )
        reloaded = SegmentedJournal(tmp_path)
        assert reloaded.records() == before
        reloaded.close()

    def test_compact_removes_dropped_files(self, tmp_path):
        journal = self.build(tmp_path)
        journal.compact(6)
        files = sorted(os.listdir(tmp_path))
        assert "segment-00000000.jsonl" not in files
        assert "segment-00000001.jsonl" not in files
        journal.close()

    def test_noop_compact(self, tmp_path):
        journal = self.build(tmp_path)
        stats = journal.compact(0)
        assert stats["segments_dropped"] == 0
        assert stats["records_dropped"] == 0
        assert journal.manifest()["compactions"] == 0
        journal.close()

    def test_active_segment_never_compacted(self, tmp_path):
        journal = self.build(tmp_path)
        stats = journal.compact(10**6)
        assert journal.segments_live >= 1
        assert journal.records()[-1] == record(1, "pi-0004")
        journal.close()
