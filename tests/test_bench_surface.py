"""The wrap points of the benchmark's span recorder (bench/sut.py).

The recorder replaces public attributes with timed versions of
themselves; an attribute that no longer exists costs its per-layer row
(reported null), and one the engine no longer calls *through the
object* reports zero.  Either would pass every other test, so the
names are pinned here against live objects: each must exist, and the
ones a row is built from must be reached by an ordinary
run / checkpoint / recover cycle.
"""

import repro.net.client as client_module
import repro.net.server as server_module
from repro.net import BusLog, BusServer, FrameDecoder, SocketBus
from repro.store import DurableStore
from repro.wfms import (
    Activity,
    Engine,
    MessageBus,
    ProcessDefinition,
    WorkflowNode,
)

ENGINE_WRAPS = ("step", "run", "recover")
JOURNAL_WRAPS = ("append", "flush")
STORE_WRAPS = (
    "maybe_checkpoint",
    "checkpoint",
    "archive_finished",
    "compact",
    "latest_checkpoint",
)
BUS_WRAPS = (
    "send_detailed",
    "receive_with_headers",
    "ack",
    "nack",
    "deliveries",
    "depth",
)


def build(directory):
    engine = Engine(
        store=DurableStore(directory, sync="batch", checkpoint_every_records=4)
    )
    engine.register_program("p", lambda ctx: 0)
    flow = ProcessDefinition("Flow")
    flow.add_activity(Activity("A", program="p"))
    flow.add_activity(Activity("B", program="p"))
    flow.connect("A", "B")
    engine.register_definition(flow)
    return engine


def count_calls(owner, names, calls):
    """Instance-attribute shims, the way the recorder installs them."""
    for name in names:
        original = getattr(owner, name)

        def shim(*args, _name=name, _original=original, **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _original(*args, **kwargs)

        setattr(owner, name, shim)


def test_engine_store_wrap_points_exist_and_are_reached(tmp_path):
    engine = build(tmp_path)
    for name in ENGINE_WRAPS:
        assert callable(getattr(engine, name)), name
    assert callable(engine.navigator.start_process)
    for name in JOURNAL_WRAPS:
        assert callable(getattr(engine.journal, name)), name
    for name in STORE_WRAPS:
        assert callable(getattr(engine.store, name)), name
    assert callable(engine.store.archive.roots)
    status = engine.store_status()
    assert {"journal_records", "archived_roots"} <= set(status)
    assert engine.store.last_recovery is None

    calls = {}
    count_calls(engine.journal, JOURNAL_WRAPS, calls)
    count_calls(engine.store, STORE_WRAPS, calls)
    for __ in range(3):
        engine.start_process("Flow")
        engine.run()
    engine.start_process("Flow")
    engine.checkpoint()
    engine.crash()
    for name in ("append", "flush", "maybe_checkpoint", "checkpoint",
                 "archive_finished"):
        assert calls.get(name), "%s was never reached" % name

    fresh = build(tmp_path)
    calls = {}
    count_calls(fresh.store, ("latest_checkpoint",), calls)
    fresh.recover()
    assert calls.get("latest_checkpoint"), "recover() bypassed the store"
    assert fresh.store.last_recovery["checkpoint"] is not None
    fresh.close()


def test_broker_wrap_points_exist(tmp_path):
    for name in ("record", "checkpoint"):
        assert callable(getattr(BusLog, name)), name
    for name in ("encode_frame", "encode_envelope"):
        assert callable(getattr(server_module, name)), name
    for name in ("encode_frame", "decode_envelope"):
        assert callable(getattr(client_module, name)), name
    assert callable(FrameDecoder.feed)
    for name in ("send", "receive", "receive_with_headers", "ack",
                 "deliveries", "close"):
        assert callable(getattr(SocketBus, name)), name
    assert callable(WorkflowNode.pump)

    server = BusServer(
        MessageBus(), durable_dir=str(tmp_path), durable_sync="batch"
    )
    for name in BUS_WRAPS:
        assert callable(getattr(server.bus, name)), name
    snapshot = server.snapshot()
    assert "frames_in_total" in snapshot and "queues" in snapshot
    assert "records" in snapshot["durable"]
    server._log.close()  # never started: nothing else to stop

