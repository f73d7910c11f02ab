"""On-disk compatibility: a store directory and a broker durable
directory laid out by hand, byte for byte in the format the commit
before the checkpointed-log refactor wrote (``journal/`` +
``MANIFEST.json`` with a dense and a sparse segment,
``checkpoint-%012d.json``, ``archive.jsonl``; ``EPOCH``,
``buscheck-%08d.json``, ``log/``), must open and recover.

The checkpoint checksum is the format's own definition — SHA-256 over
the state's canonical JSON — computed here with hashlib, not with the
code under test.
"""

import hashlib
import json

import pytest

from repro.net import BusLog
from repro.store import DurableStore
from repro.store.archive import InstanceArchive
from repro.wfms import Activity, Engine, MessageBus, ProcessDefinition


def checkpoint_bytes(state_json: str) -> str:
    canonical = json.dumps(
        json.loads(state_json), sort_keys=True, separators=(",", ":")
    )
    checksum = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
    return '{"checksum": "%s", "format": 1, "state": %s}\n' % (
        checksum,
        state_json,
    )


# -- the engine store: pi-0001 finished and archived; pi-0002 has run A,
# -- was snapshotted with B ready, and ran B before the crash ------------

STORE_MANIFEST = (
    '{"compactions": 1, "format": 1, "segments": ['
    '{"count": 2, "file": "segment-00000000.c1.jsonl", "first": 5, "id": 0,'
    ' "last": 6, "sparse": true}, '
    '{"count": null, "file": "segment-00000001.jsonl", "first": 7, "id": 1,'
    ' "sparse": false}]}\n'
)
STORE_SPARSE_SEGMENT = (
    '{"i": 5, "r": {"definition": "Flow", "input": {}, "instance": "pi-0002",'
    ' "parent_activity": "", "parent_instance": "", "starter": "",'
    ' "type": "process_started", "version": "1"}}\n'
    '{"i": 6, "r": {"activity": "A", "attempt": 1, "forced": false,'
    ' "instance": "pi-0002", "output": {"_RC": 0},'
    ' "type": "activity_completed", "user": ""}}\n'
)
STORE_ACTIVE_SEGMENT = (
    '{"activity": "B", "attempt": 1, "forced": false, "instance": "pi-0002",'
    ' "output": {"_RC": 0}, "type": "activity_completed", "user": ""}\n'
)
STORE_CHECKPOINT_STATE = (
    '{"audit": ['
    '{"activity": "", "at": 0.0, "detail": {"detail": {"definition": "Flow",'
    ' "starter": ""}}, "event": "process_started", "instance_id": "pi-0002",'
    ' "sequence": 16}, '
    '{"activity": "A", "at": 0.0, "detail": {}, "event": "activity_ready",'
    ' "instance_id": "pi-0002", "sequence": 17}, '
    '{"activity": "A", "at": 0.0, "detail": {"attempt": 1, "user": ""},'
    ' "event": "activity_started", "instance_id": "pi-0002", "sequence": 18}, '
    '{"activity": "A", "at": 0.0, "detail": {"attempt": 1, "rc": 0},'
    ' "event": "activity_finished", "instance_id": "pi-0002", "sequence": 19}, '
    '{"activity": "A", "at": 0.0, "detail": {"rc": 0},'
    ' "event": "activity_terminated", "instance_id": "pi-0002",'
    ' "sequence": 20}, '
    '{"activity": "B", "at": 0.0, "detail": {"source": "A", "value": true},'
    ' "event": "connector_evaluated", "instance_id": "pi-0002",'
    ' "sequence": 21}, '
    '{"activity": "B", "at": 0.0, "detail": {}, "event": "activity_ready",'
    ' "instance_id": "pi-0002", "sequence": 22}], '
    '"audit_next": 23, "clock": 0.0,'
    ' "definitions": [["Flow", "1"]], "instances": [{"activities": {'
    '"A": {"attempt": 1, "child_instance": "", "claimed_by": "",'
    ' "dead": false, "forced": false, "incoming": {}, "output": {"_RC": 0},'
    ' "state": "terminated"}, '
    '"B": {"attempt": 0, "child_instance": "", "claimed_by": "",'
    ' "dead": false, "forced": false, "incoming": {"A->B": true},'
    ' "output": null, "state": "ready"}, '
    '"C": {"attempt": 0, "child_instance": "", "claimed_by": "",'
    ' "dead": false, "forced": false, "incoming": {"B->C": null},'
    ' "output": null, "state": "waiting"}}, "definition": "Flow",'
    ' "input": {}, "instance": "pi-0002", "output": {"_RC": 0},'
    ' "parent_activity": "", "parent_instance": "", "starter": "",'
    ' "state": "running", "version": "1"}], "offset": 7, "sequence": 2}'
)
STORE_ARCHIVE = (
    '{"audit": [], "definition": "Flow", "finished_at": 0.0, "format": 1,'
    ' "instances": {"pi-0001": {"dead_activities": [], "definition": "Flow",'
    ' "execution_order": ["A", "B", "C"], "invocations": {"p": 3},'
    ' "order": ["A", "B", "C"], "output": {"_RC": 0}, "parent_activity": "",'
    ' "parent_instance": "", "rc": 0, "state": "finished", "version": "1"}},'
    ' "order": ["A", "B", "C"], "output": {"_RC": 0}, "rc": 0,'
    ' "root": "pi-0001", "starter": "", "version": "1"}\n'
)


def write_store(directory, *, with_checkpoint):
    journal = directory / "journal"
    journal.mkdir(parents=True)
    (journal / "MANIFEST.json").write_text(STORE_MANIFEST)
    (journal / "segment-00000000.c1.jsonl").write_text(STORE_SPARSE_SEGMENT)
    (journal / "segment-00000001.jsonl").write_text(STORE_ACTIVE_SEGMENT)
    (directory / "archive.jsonl").write_text(STORE_ARCHIVE)
    if with_checkpoint:
        (directory / "checkpoint-000000000007.json").write_text(
            checkpoint_bytes(STORE_CHECKPOINT_STATE)
        )


@pytest.mark.parametrize("with_checkpoint", [True, False])
def test_store_directory_in_the_parent_format_recovers(
    tmp_path, with_checkpoint
):
    write_store(tmp_path, with_checkpoint=with_checkpoint)
    ran = []
    engine = Engine(store=DurableStore(tmp_path))
    engine.register_program("p", lambda ctx: ran.append(ctx.activity) or 0)
    flow = ProcessDefinition("Flow")
    for name in "ABC":
        flow.add_activity(Activity(name, program="p"))
    flow.connect("A", "B")
    flow.connect("B", "C")
    engine.register_definition(flow)

    engine.recover()
    summary = engine.store.last_recovery
    if with_checkpoint:
        assert summary == {
            "checkpoint": str(tmp_path / "checkpoint-000000000007.json"),
            "offset": 7,
            "skipped_checkpoints": 0,
            "suffix_records": 1,
            "archived_skipped": 1,
            "restored_instances": 1,
            "replayed": 1,
        }
    else:  # full replay of what compaction left: the same place
        assert summary["checkpoint"] is None
        assert (summary["suffix_records"], summary["replayed"]) == (3, 2)
    assert engine.store_status()["journal_records"] == 8
    assert engine.instance_state("pi-0002") == "running"
    engine.run()
    assert ran == ["C"]  # A and B came from the snapshot and the journal
    for instance in ("pi-0001", "pi-0002"):
        assert engine.instance_state(instance) == "finished"
        assert engine.execution_order(instance) == ["A", "B", "C"]
    assert engine.start_process("Flow") == "pi-0003"
    engine.close()
    # The parent's format-1 line now precedes pi-0002's format-2 entry;
    # the mixed file reopens with both kinds answering.
    archive = InstanceArchive(tmp_path / "archive.jsonl")
    assert [archive.by_id(root)["format"] for root in archive.roots()] == [
        1,
        2,
    ]
    assert archive.audit("pi-0001") == []
    assert [r["event"] for r in archive.audit("pi-0002")][-1] == (
        "process_finished"
    )
    archive.close()


def test_inline_audit_slice_of_a_format_1_entry(tmp_path):
    inline = [
        {"activity": "A", "at": 0.0, "detail": {}, "event": "activity_ready",
         "instance_id": "pi-0001", "sequence": 1},
    ]
    line = json.loads(STORE_ARCHIVE)
    line["audit"] = inline
    path = tmp_path / "archive.jsonl"
    path.write_text(json.dumps(line, sort_keys=True) + "\n")
    archive = InstanceArchive(path)
    assert archive.audit("pi-0001") == inline
    archive.add(
        {**line, "root": "pi-0002", "instances": {"pi-0002": {}},
         "audit": inline}
    )
    archive.close()
    reopened = InstanceArchive(path)
    assert reopened.audit("pi-0001") == reopened.audit("pi-0002") == inline
    assert "audit" not in reopened.by_id("pi-0002")
    reopened.close()


# -- the broker: two sends snapshotted, then an ack and a send ----------

BUS_CHECKPOINT_STATE = (
    '{"bus": {"counter": 2, "queues": {"q": ['
    '{"body": {"n": 0}, "deliveries": 0, "headers": {}, "hold": 0,'
    ' "msg_id": "m000000"}, '
    '{"body": {"n": 1}, "deliveries": 0, "headers": {}, "hold": 0,'
    ' "msg_id": "m000001"}]}, "stats": {"q": {"acked": 0,'
    ' "dead_lettered": 0, "delayed": 0, "delivered": 0, "dropped": 0,'
    ' "duplicated": 0, "nacked": 0, "overflowed": 0, "redelivered": 0,'
    ' "sent": 2, "shed": 0}}}, "offset": 2, "sessions": {"c@1": {'
    '"op_id": "c@1#1", "reply": {"ok": true, "value": "m000001"}}}}'
)
BUS_MANIFEST = (
    '{"compactions": 1, "format": 1, "segments": [{"count": null,'
    ' "file": "segment-00000001.jsonl", "first": 2, "id": 1,'
    ' "sparse": false}]}\n'
)
BUS_SEGMENT = (
    '{"msg_id": "m000000", "queue": "q", "type": "ack"}\n'
    '{"effect": "enqueued", "entries": [{"body": {"n": 2}, "headers": {},'
    ' "hold": 0, "msg_id": "m000002"}], "queue": "r", "type": "send"}\n'
)


def test_broker_directory_in_the_parent_format_recovers(tmp_path):
    (tmp_path / "EPOCH").write_text("1\n")
    (tmp_path / "buscheck-00000002.json").write_text(
        checkpoint_bytes(BUS_CHECKPOINT_STATE)
    )
    (tmp_path / "log").mkdir()
    (tmp_path / "log" / "MANIFEST.json").write_text(BUS_MANIFEST)
    (tmp_path / "log" / "segment-00000001.jsonl").write_text(BUS_SEGMENT)

    log = BusLog(tmp_path)
    bus = MessageBus()
    info = log.recover_into(bus)
    assert log.epoch == 2
    assert (tmp_path / "EPOCH").read_text() == "2\n"
    assert info == {
        "checkpoint_offset": 2,
        "checkpoints_skipped": 0,
        "restored_messages": 2,
        "replayed_records": 2,
        "sessions": {
            "c@1": {
                "op_id": "c@1#1",
                "reply": {"ok": True, "value": "m000001"},
            }
        },
    }
    state = bus.export_state()
    assert [row["msg_id"] for row in state["queues"]["q"]] == ["m000001"]
    assert [row["body"] for row in state["queues"]["r"]] == [{"n": 2}]
    assert state["stats"]["q"]["sent"] == 2
    assert state["stats"]["q"]["acked"] == 1
    assert bus.send("q", {"n": 3}) == "m000003"
    status = log.status()
    assert (status["records"], status["last_checkpoint_offset"]) == (4, 2)
    log.close()
