"""Tests for distributed workflow execution over persistent messages
(the Exotica/FMQM dimension: heterogeneous, distributed, crash-safe)."""

import random

import pytest

from repro.errors import WorkflowError
from repro.wfms import Activity, DataType, ProcessDefinition, VariableDecl
from repro.wfms.distributed import WorkflowNode, run_cluster
from repro.wfms.messaging import MessageBus
from repro.wfms.model import PROCESS_INPUT, PROCESS_OUTPUT
from repro.workloads.distributed_demo import (
    configure_requester,
    configure_worker,
    make_requester,
    make_worker,
)


def recording_pump(node, index, visits, rounds, crash_at=None):
    """Wrap ``node.pump``: log each visit, crash the node on call
    ``crash_at``, and report progress for the first ``rounds`` calls so
    the cluster runs exactly ``rounds + 1`` rounds."""
    pump = node.pump

    def recorded():
        visits.append(index)
        pump()
        calls = visits.count(index)
        if calls == crash_at:
            node.crash()
        return calls <= rounds

    return recorded


class TestRoundContract:
    """``run_cluster``'s rounds: one ``shuffle(list(range(n)))`` draw
    per round with ``rng``, list order without; crashed nodes are
    skipped after the draw, so they still consume their place in it."""

    @pytest.mark.parametrize("seed", [None, 0, 1, 7])
    def test_visit_order(self, seed):
        n, rounds, victim = 4, 5, 2
        bus = MessageBus()
        nodes = [WorkflowNode("n%d" % index, bus) for index in range(n)]
        visits: list[int] = []
        for index, node in enumerate(nodes):
            node.pump = recording_pump(
                node,
                index,
                visits,
                rounds,
                crash_at=2 if index == victim else None,
            )
        rng = None if seed is None else random.Random(seed)
        assert run_cluster(nodes, rng=rng, steps_per_round=1) == rounds + 1

        reference = None if seed is None else random.Random(seed)
        expected: list[int] = []
        for round_number in range(1, rounds + 2):
            order = list(range(n))
            if reference is not None:
                reference.shuffle(order)
            expected.extend(
                index
                for index in order
                if index != victim or round_number <= 2
            )
        assert visits == expected


class TestMessageBus:
    def test_fifo_delivery(self):
        bus = MessageBus()
        bus.send("q", {"n": 1})
        bus.send("q", {"n": 2})
        __, first = bus.receive("q")
        assert first == {"n": 1}

    def test_in_flight_messages_hidden(self):
        bus = MessageBus()
        bus.send("q", {"n": 1})
        bus.receive("q")
        assert bus.receive("q") is None

    def test_ack_removes(self):
        bus = MessageBus()
        bus.send("q", {"n": 1})
        msg_id, __ = bus.receive("q")
        bus.ack("q", msg_id)
        assert bus.depth("q") == 0

    def test_nack_redelivers(self):
        bus = MessageBus()
        bus.send("q", {"n": 1})
        msg_id, __ = bus.receive("q")
        bus.nack("q", msg_id)
        msg_id2, body = bus.receive("q")
        assert body == {"n": 1}
        assert bus.deliveries("q", msg_id2) == 2

    def test_ack_requires_in_flight(self):
        bus = MessageBus()
        bus.send("q", {"n": 1})
        with pytest.raises(WorkflowError):
            bus.ack("q", "m000000")

    def test_recover_in_flight(self):
        bus = MessageBus()
        bus.send("q", {"n": 1})
        bus.send("q", {"n": 2})
        bus.receive("q")
        bus.receive("q")
        assert bus.recover_in_flight("q") == 2
        assert bus.receive("q") is not None

    def test_unknown_message_rejected(self):
        bus = MessageBus()
        with pytest.raises(WorkflowError):
            bus.nack("q", "ghost")


class TestRemoteExecution:
    def test_remote_subprocess_round_trip(self):
        bus = MessageBus()
        worker = make_worker(bus)
        front = make_requester(bus)
        iid = front.engine.start_process("Front", {"N": 21})
        run_cluster([front, worker], watch=[(front, iid)])
        assert front.engine.output(iid)["Result"] == 43  # 21*2 + 1

    def test_multiple_concurrent_remote_calls(self):
        bus = MessageBus()
        worker = make_worker(bus)
        front = make_requester(bus)
        ids = [
            front.engine.start_process("Front", {"N": n})
            for n in (1, 2, 3, 4)
        ]
        run_cluster([front, worker], watch=[(front, i) for i in ids])
        results = [front.engine.output(i)["Result"] for i in ids]
        assert results == [3, 5, 7, 9]

    def test_three_node_chain(self):
        # front -> middle (serves Front's remote) -> worker
        bus = MessageBus()
        worker = make_worker(bus)
        middle = make_requester(bus, name="middle", worker="worker")
        middle.serve(middle.engine.definition("Front"))
        front = WorkflowNode("front2", bus)
        remote = front.remote_activity(
            "CallFront",
            process="Front",
            node="middle",
            input_spec=[VariableDecl("N", DataType.LONG)],
            output_spec=[VariableDecl("Result", DataType.LONG)],
        )
        defn = ProcessDefinition(
            "Outer",
            input_spec=[VariableDecl("N", DataType.LONG)],
            output_spec=[VariableDecl("Result", DataType.LONG)],
        )
        defn.add_activity(remote)
        defn.map_data(PROCESS_INPUT, "CallFront", [("N", "N")])
        defn.map_data(
            "CallFront", PROCESS_OUTPUT, [("Result", "Result")]
        )
        front.engine.register_definition(defn)
        iid = front.engine.start_process("Outer", {"N": 5})
        run_cluster([front, middle, worker], watch=[(front, iid)])
        assert front.engine.output(iid)["Result"] == 11

    def test_unserved_process_is_an_error(self):
        bus = MessageBus()
        worker = WorkflowNode("worker", bus)
        front = make_requester(bus)
        front.engine.start_process("Front", {"N": 1})
        with pytest.raises(WorkflowError, match="does not serve"):
            run_cluster([front, worker], max_rounds=10)

    def test_duplicate_requests_deduplicated(self):
        bus = MessageBus()
        worker = make_worker(bus)
        front = make_requester(bus)
        iid = front.engine.start_process("Front", {"N": 10})
        run_cluster([front, worker], watch=[(front, iid)])
        # Manually resend the same request: the worker must not run a
        # second instance, just reply again.
        request_id = "front/%s/CallDouble" % iid
        bus.send(
            "node:worker",
            {
                "type": "request",
                "request_id": request_id,
                "process": "Double",
                "input": {"In": 10},
                "reply_to": "replies:front",
            },
        )
        instances_before = len(worker.engine.navigator.instances())
        worker.pump()
        assert len(worker.engine.navigator.instances()) == instances_before
        assert bus.depth("replies:front") == 1  # reply re-sent


class TestCrashSafety:
    def test_requester_crash_and_rebuild(self, tmp_path):
        bus = MessageBus()
        worker = make_worker(bus)
        front = make_requester(
            bus, journal_path=str(tmp_path / "front.journal")
        )
        iid = front.engine.start_process("Front", {"N": 7})
        front.engine.step()  # poll attempt 1: request sent
        front.crash()

        front.rebuild(
            configure_requester
        )
        run_cluster([front, worker], watch=[(front, iid)])
        assert front.engine.output(iid)["Result"] == 15

    def test_worker_crash_before_processing(self, tmp_path):
        bus = MessageBus()
        worker = make_worker(
            bus, journal_path=str(tmp_path / "worker.journal")
        )
        front = make_requester(bus)
        iid = front.engine.start_process("Front", {"N": 3})
        front.engine.step()  # request is on the worker's inbox
        worker.crash()
        worker.rebuild(configure_worker)
        run_cluster([front, worker], watch=[(front, iid)])
        assert front.engine.output(iid)["Result"] == 7

    def test_worker_crash_after_processing_before_ack(self, tmp_path):
        bus = MessageBus()
        worker = make_worker(
            bus, journal_path=str(tmp_path / "worker.journal")
        )
        front = make_requester(bus)
        iid = front.engine.start_process("Front", {"N": 4})
        front.engine.step()
        # Simulate: the worker receives the request (in flight) and
        # crashes before acking.
        bus.receive("node:worker")
        worker.crash()  # recover_in_flight requeues it
        worker.rebuild(configure_worker)
        run_cluster([front, worker], watch=[(front, iid)])
        assert front.engine.output(iid)["Result"] == 9


