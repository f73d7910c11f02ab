"""Instance archive: append-only durability, idempotent adds, queries,
and the audit sidecar's consistency with the index across crashes."""

import json
import os

import pytest

from repro.core import SagaSpec, SagaStep, translate_saga
from repro.core.bindings import register_programs, workflow_outcome
from repro.errors import RecoveryError
from repro.store import DurableStore
from repro.store.archive import InstanceArchive, build_archive_entry
from repro.tx import AlwaysAbort, SimDatabase
from repro.wfms import Activity, Engine, ProcessDefinition
from repro.wfms.model import ActivityKind
from repro.workloads.generator import saga_bindings


def records(root, n=3):
    return [{"instance_id": root, "event": "e%d" % i} for i in range(n)]


def entry(root, definition="P", rc=0, finished_at=0.0, children=(), audit=()):
    instances = {root: {"definition": definition, "state": "finished"}}
    for child in children:
        instances[child] = {"definition": definition, "state": "finished"}
    return {
        "root": root,
        "definition": definition,
        "version": "1",
        "starter": "",
        "finished_at": finished_at,
        "rc": rc,
        "output": {"_RC": rc},
        "order": ["A"],
        "instances": instances,
        "audit": list(audit),
    }


class TestArchive:
    def test_add_and_query_round_trip(self, tmp_path):
        path = tmp_path / "archive.jsonl"
        archive = InstanceArchive(path)
        assert archive.add(entry("pi-0001", "Pay", rc=0, finished_at=1.0))
        assert archive.add(
            entry("pi-0002", "Pay", rc=2, finished_at=3.0,
                  children=("pi-0002.Sub-1",))
        )
        assert archive.add(entry("pi-0003", "Ship", rc=0, finished_at=5.0))
        archive.close()

        reloaded = InstanceArchive(path)
        assert len(reloaded) == 3
        assert reloaded.instance_count() == 4
        assert reloaded.roots() == ["pi-0001", "pi-0002", "pi-0003"]
        assert "pi-0002.Sub-1" in reloaded
        assert reloaded.by_id("pi-0001")["rc"] == 0
        child = reloaded.by_id("pi-0002.Sub-1")
        assert child["root"] == "pi-0002"
        assert child["finished_at"] == 3.0
        assert [e["root"] for e in reloaded.by_definition("Pay")] == [
            "pi-0001",
            "pi-0002",
        ]
        assert [e["root"] for e in reloaded.finished_between(2.0, 5.0)] == [
            "pi-0002",
            "pi-0003",
        ]
        assert reloaded.outcomes() == {0: 2, 2: 1}
        assert reloaded.outcomes("Pay") == {0: 1, 2: 1}
        assert reloaded.by_id("pi-9999") is None
        reloaded.close()

    def test_duplicate_add_is_idempotent(self, tmp_path):
        path = tmp_path / "archive.jsonl"
        archive = InstanceArchive(path)
        assert archive.add(entry("pi-0001"))
        assert not archive.add(entry("pi-0001"))
        archive.close()
        assert len(path.read_text(encoding="utf-8").splitlines()) == 1

    def test_torn_tail_tolerated_and_healed(self, tmp_path):
        """A crash mid-append loses the last entry; the journal still
        holds the instance's records, so replay re-finishes it and the
        re-archive heals the file."""
        path = tmp_path / "archive.jsonl"
        archive = InstanceArchive(path)
        archive.add(entry("pi-0001"))
        archive.add(entry("pi-0002"))
        archive.close()
        data = path.read_text(encoding="utf-8")
        path.write_text(data[: len(data) - 20], encoding="utf-8")

        reloaded = InstanceArchive(path)
        assert reloaded.roots() == ["pi-0001"]
        assert reloaded.add(entry("pi-0002"))  # the heal
        reloaded.close()
        healed = InstanceArchive(path)
        assert healed.roots() == ["pi-0001", "pi-0002"]
        healed.close()

    def test_malformed_entry_raises(self, tmp_path):
        path = tmp_path / "archive.jsonl"
        path.write_text('{"format": 1, "no_root": true}\n{"x": 1}\n')
        with pytest.raises(RecoveryError, match="malformed archive entry"):
            InstanceArchive(path)

    def test_closed_archive_rejects_writes(self, tmp_path):
        archive = InstanceArchive(tmp_path / "archive.jsonl")
        archive.close()
        with pytest.raises(RecoveryError):
            archive.add(entry("pi-0001"))
        archive.reopen()
        assert archive.add(entry("pi-0001"))
        archive.close()


class TestBuildEntry:
    def test_entry_captures_subtree(self):
        engine = Engine()
        engine.register_program("p", lambda ctx: 0)
        child = ProcessDefinition("Child")
        child.add_activity(Activity("Work", program="p"))
        engine.register_definition(child)
        parent = ProcessDefinition("Parent")
        parent.add_activity(
            Activity("Delegate", kind=ActivityKind.PROCESS, subprocess="Child")
        )
        parent.add_activity(Activity("Wrap", program="p"))
        parent.connect("Delegate", "Wrap")
        engine.register_definition(parent)
        iid = engine.start_process("Parent", starter="ada")
        engine.run()
        assert engine.instance_state(iid) == "finished"

        instance = engine.navigator.instance(iid)
        built = build_archive_entry(engine.navigator, instance)
        assert built["root"] == iid
        assert built["definition"] == "Parent"
        assert built["starter"] == "ada"
        assert len(built["instances"]) == 2  # root + subprocess child
        assert built["order"] == ["Work", "Wrap"]  # deep order
        child_id = next(i for i in built["instances"] if i != iid)
        member = built["instances"][child_id]
        assert member["parent_instance"] == iid
        assert member["execution_order"] == ["Work"]
        assert built["audit"]  # the subtree's audit slice rides along


class TestAuditSidecar:
    def test_entries_in_memory_leave_the_slice_on_disk(self, tmp_path):
        path = tmp_path / "archive.jsonl"
        archive = InstanceArchive(path)
        archive.add(entry("pi-0001", audit=records("pi-0001")))
        archive.add(entry("pi-0002", audit=records("pi-0002", 5)))
        for reopened in (archive, InstanceArchive(path)):
            stored = reopened.by_id("pi-0002")
            assert stored["format"] == 2 and "audit" not in stored
            assert reopened.audit("pi-0001") == records("pi-0001")
            assert reopened.audit("pi-0002") == records("pi-0002", 5)
            assert reopened.audit("pi-9999") is None
            reopened.close()
        line = (tmp_path / "archive-audit.jsonl").read_text().splitlines()[1]
        assert json.loads(line) == {
            "records": records("pi-0002", 5),
            "root": "pi-0002",
        }

    def test_slice_is_fsynced_before_its_entry(self, tmp_path, disk_events):
        archive = InstanceArchive(tmp_path / "archive.jsonl")
        sidecar, index = archive._audit_file.fileno(), archive._file.fileno()
        archive.add(entry("pi-0001"))
        archive.flush()
        assert disk_events == [("fsync", sidecar), ("fsync", index)] * 2
        archive.close()

    def test_batch_add_does_not_fsync(self, tmp_path, disk_events):
        archive = InstanceArchive(tmp_path / "archive.jsonl", sync="batch")
        archive.add(entry("pi-0001"))
        assert disk_events == []
        assert archive.audit("pi-0001") == []  # readable before a barrier
        archive.close()

    def test_torn_index_tail_trims_the_orphan_slice(self, tmp_path):
        """A crash between the slice write and the entry write (or mid
        entry) leaves an orphan slice: open trims it, and the heal's
        re-add writes a fresh slice where it was."""
        path = tmp_path / "archive.jsonl"
        archive = InstanceArchive(path)
        archive.add(entry("pi-0001", audit=records("pi-0001")))
        sidecar = tmp_path / "archive-audit.jsonl"
        kept = sidecar.stat().st_size
        archive.add(entry("pi-0002", audit=records("pi-0002")))
        archive.close()
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 20])

        reopened = InstanceArchive(path)
        assert reopened.roots() == ["pi-0001"]
        assert sidecar.stat().st_size == kept
        assert reopened.add(entry("pi-0002", audit=records("pi-0002", 4)))
        reopened.close()
        healed = InstanceArchive(path)
        assert healed.roots() == ["pi-0001", "pi-0002"]
        assert healed.audit("pi-0002") == records("pi-0002", 4)
        healed.close()

    def test_entry_past_the_sidecar_end_is_a_torn_tail(self, tmp_path):
        path = tmp_path / "archive.jsonl"
        archive = InstanceArchive(path)
        for n in (1, 2, 3):
            archive.add(entry("pi-000%d" % n, audit=records("x")))
        archive.close()
        sidecar = tmp_path / "archive-audit.jsonl"
        slices = sidecar.read_bytes()
        cut = len(slices.splitlines(keepends=True)[0]) + 5  # in slice 2
        sidecar.write_bytes(slices[:cut])

        reopened = InstanceArchive(path)
        assert reopened.roots() == ["pi-0001"]  # 2 is torn, 3 follows it
        assert len(path.read_text().splitlines()) == 1
        assert sidecar.stat().st_size == cut - 5
        reopened.close()

    def test_corrupt_slice_fails_only_its_own_root(self, tmp_path, monkeypatch):
        path = tmp_path / "archive.jsonl"
        archive = InstanceArchive(path)
        for n in (1, 2, 3):
            root = "pi-000%d" % n
            archive.add(entry(root, audit=records(root)))
        archive.close()
        sidecar = tmp_path / "archive-audit.jsonl"
        slices = sidecar.read_bytes()
        middle = len(slices.splitlines(keepends=True)[0]) + 20
        sidecar.write_bytes(slices[:middle] + b"#####" + slices[middle + 5:])

        opened = []
        real_open = open

        def spy(file, *args, **kwargs):
            opened.append(os.fspath(file))
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr("repro.store.archive.open", spy, raising=False)
        reopened = InstanceArchive(path)
        # Open parses the index and appends to both files; it never
        # opens the sidecar for reading.
        assert opened.count(str(sidecar)) == 1
        assert reopened._audit_file.mode == "ab"
        monkeypatch.undo()
        assert reopened.roots() == ["pi-0001", "pi-0002", "pi-0003"]
        assert reopened.audit("pi-0001") == records("pi-0001")
        assert reopened.audit("pi-0003") == records("pi-0003")
        with pytest.raises(RecoveryError, match="corrupt audit slice"):
            reopened.audit("pi-0002")
        reopened.close()

    def test_slice_of_another_root_is_refused(self, tmp_path):
        path = tmp_path / "archive.jsonl"
        archive = InstanceArchive(path)
        archive.add(entry("pi-0001"))
        archive.add(entry("pi-0002"))
        archive.close()
        sidecar = tmp_path / "archive-audit.jsonl"
        sidecar.write_bytes(sidecar.read_bytes().replace(b"0001", b"0003"))
        with pytest.raises(RecoveryError, match="pi-0001"):
            InstanceArchive(path).audit("pi-0001")


def saga_run(directory):
    """A 3-step saga (its last step aborts) on a store with no
    checkpoint policy, so the whole journal replays."""
    spec = SagaSpec("s", [SagaStep(n) for n in ("t1", "t2", "t3")])
    translation = translate_saga(spec)
    actions, compensations = saga_bindings(
        spec, SimDatabase(), policies={"t3": AlwaysAbort()}
    )

    def engine():
        built = Engine(store=DurableStore(directory))
        register_programs(built, translation, actions, compensations)
        built.register_definition(translation.process)
        return built

    def observed(built, root):
        return (
            workflow_outcome(built, translation, root),
            built.execution_order(root),
        )

    return translation, engine, observed


def unsequenced(audit):
    """Audit records minus their global sequence numbers (replay
    renumbers a re-finished root's records)."""
    return [{k: v for k, v in r.items() if k != "sequence"} for r in audit]


class TestTwoFilesAcrossCrashes:
    def test_truncated_slice_is_re_archived_by_replay(self, tmp_path):
        translation, engine, observed = saga_run(tmp_path / "baseline")
        baseline = engine()
        roots = [baseline.start_process(translation.process_name)
                 for __ in range(3)]
        baseline.run()
        expected = [observed(baseline, root) for root in roots]
        baseline.close()

        translation, engine, observed = saga_run(tmp_path / "crashed")
        first = engine()
        for __ in range(3):
            first.start_process(translation.process_name)
        first.run()
        slices = unsequenced(first.store.archive.audit("pi-0003"))
        first.crash()
        sidecar = tmp_path / "crashed" / "archive-audit.jsonl"
        with open(sidecar, "r+b") as handle:
            handle.truncate(sidecar.stat().st_size - 10)

        fresh = engine()
        assert fresh.store.archive.roots() == ["pi-0001", "pi-0002"]
        fresh.recover()
        fresh.run()
        assert fresh.store.archive.roots() == roots
        assert [observed(fresh, root) for root in roots] == expected
        assert unsequenced(fresh.store.archive.audit("pi-0003")) == slices
        fresh.close()

    def test_no_entry_in_memory_holds_audit_records(self, tmp_path):
        """The recovery workload's shape, small: finished roots, a
        checkpoint, a half-executed batch, a crash and a recovery."""
        translation, engine, observed = saga_run(tmp_path)
        first = engine()
        for __ in range(6):
            first.start_process(translation.process_name)
        first.run()
        first.checkpoint()
        for __ in range(4):
            first.start_process(translation.process_name)
        for __ in range(10):
            first.step()
        first.crash()
        fresh = engine()
        fresh.recover()
        fresh.run()
        archive = fresh.store.archive
        assert len(archive) == 10
        for root in archive.roots():
            stored = archive.by_id(root)
            assert stored["format"] == 2 and "audit" not in stored
            assert archive.audit(root)
        fresh.close()
