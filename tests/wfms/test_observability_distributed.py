"""Trace propagation across distributed request/reply.

The invariant under test: one distributed request/reply chain is ONE
trace spanning both engines — including across a server crash, journal
replay, and message redelivery (the redelivered request must not start
a second trace).
"""

from repro.store import DurableStore
from repro.wfms.distributed import run_cluster
from repro.wfms.messaging import MessageBus
from repro.workloads.distributed_demo import (
    configure_requester,
    configure_worker,
    make_requester,
    make_worker,
)
from tests.chaos_harness import served


def front_trace_id(front, instance_id):
    """Trace id of the requester's 'process Front' span(s).

    A crash/replay cycle leaves one pre-crash span and one replayed
    span for the same instance; they must agree on the trace id.
    """
    traces = {
        s["trace_id"]
        for s in front.obs.tracer.export()
        if s["name"] == "process Front"
        and s["attributes"].get("instance_id") == instance_id
    }
    assert len(traces) == 1
    return traces.pop()


class TestSingleDistributedTrace:
    def test_request_reply_is_one_trace(self):
        bus = MessageBus()
        worker = make_worker(bus, observability=True)
        front = make_requester(bus, observability=True)
        iid = front.engine.start_process("Front", {"N": 21})
        run_cluster([front, worker], watch=[(front, iid)])
        assert front.engine.output(iid)["Result"] == 43

        trace = front_trace_id(front, iid)
        worker_spans = worker.obs.tracer.export()
        # Every span the worker produced belongs to the requester's
        # trace: the worker never opened a trace of its own.
        assert worker_spans
        assert {s["trace_id"] for s in worker_spans} == {trace}

    def test_served_instance_parents_at_the_calling_activity(self):
        bus = MessageBus()
        worker = make_worker(bus, observability=True)
        front = make_requester(bus, observability=True)
        iid = front.engine.start_process("Front", {"N": 5})
        run_cluster([front, worker], watch=[(front, iid)])

        [served] = [
            s
            for s in worker.obs.tracer.export()
            if s["name"] == "process Double"
        ]
        # The request headers carried the CallDouble attempt span's
        # context, so the served instance hangs under that attempt.
        call_span_ids = {
            s["span_id"]
            for s in front.obs.tracer.export()
            if s["name"] == "activity CallDouble"
        }
        assert served["parent_id"] in call_span_ids
        assert served["trace_id"] == front_trace_id(front, iid)

    def test_distinct_requests_are_distinct_traces(self):
        bus = MessageBus()
        worker = make_worker(bus, observability=True)
        front = make_requester(bus, observability=True)
        first = front.engine.start_process("Front", {"N": 1})
        second = front.engine.start_process("Front", {"N": 2})
        run_cluster(
            [front, worker], watch=[(front, first), (front, second)]
        )

        traces = {front_trace_id(front, first), front_trace_id(front, second)}
        assert len(traces) == 2
        served_traces = {
            s["trace_id"]
            for s in worker.obs.tracer.export()
            if s["name"] == "process Double"
        }
        assert served_traces == traces


class TestCrashReplayTrace:
    def test_replayed_server_rejoins_the_trace(self, tmp_path):
        """Server crash after journaling the request, before acking it.

        The journal replays the served instance (rejoining the
        requester's trace from the journaled context) and the bus
        redelivers the request, which must find the existing
        request-keyed instance instead of starting a second trace.
        """
        bus = MessageBus()
        worker = make_worker(
            bus,
            store_factory=lambda: DurableStore(tmp_path / "worker"),
            observability=True,
        )
        front = make_requester(bus, observability=True)
        iid = front.engine.start_process("Front", {"N": 8})
        front.engine.step()  # poll attempt 1: request sent

        # The worker receives and journals the request but crashes
        # before acking: the message stays in flight.
        message = bus.receive_with_headers("node:worker")
        assert message is not None
        __, body, headers = message
        worker._handle_request(body, headers)
        pre_crash = {
            s["trace_id"]
            for s in worker.obs.tracer.export()
            if s["name"] == "process Double"
        }
        worker.crash()  # recover_in_flight requeues the request
        worker.rebuild(configure_worker)

        run_cluster([front, worker], watch=[(front, iid)])
        assert front.engine.output(iid)["Result"] == 17

        # Pre-crash span, replayed span, and the requester's root all
        # agree on a single trace id: no second trace was started.
        served_traces = {
            s["trace_id"]
            for s in worker.obs.tracer.export()
            if s["name"] == "process Double"
        }
        assert served_traces == pre_crash
        assert served_traces == {front_trace_id(front, iid)}
        # And the redelivered request did not start a second instance.
        assert len(served(worker)) == 1

    def test_requester_crash_resends_within_the_same_trace(self, tmp_path):
        """Requester crash: the replayed poller re-sends the request.

        The server deduplicates on the request id, so the reply still
        belongs to one served instance — and that instance's trace is
        the requester's (pre-crash) trace, preserved by the journal.
        """
        bus = MessageBus()
        worker = make_worker(bus, observability=True)
        front = make_requester(
            bus,
            store_factory=lambda: DurableStore(tmp_path / "front"),
            observability=True,
        )
        iid = front.engine.start_process("Front", {"N": 7})
        original_trace = front_trace_id(front, iid)
        front.engine.step()  # request sent
        front.crash()
        front.rebuild(configure_requester)
        run_cluster([front, worker], watch=[(front, iid)])
        assert front.engine.output(iid)["Result"] == 15

        assert front_trace_id(front, iid) == original_trace
        served_traces = {
            s["trace_id"]
            for s in worker.obs.tracer.export()
            if s["name"] == "process Double"
        }
        assert served_traces == {original_trace}


class TestDisabledNodesStayQuiet:
    def test_no_headers_and_no_spans_when_off(self):
        bus = MessageBus()
        worker = make_worker(bus)
        front = make_requester(bus)
        iid = front.engine.start_process("Front", {"N": 3})
        front.engine.step()
        # The request is sitting in the worker's inbox with no trace
        # headers attached.
        message = bus.receive_with_headers("node:worker")
        assert message is not None
        msg_id, __, headers = message
        assert headers == {}
        bus.nack("node:worker", msg_id)  # put it back
        run_cluster([front, worker], watch=[(front, iid)])
        assert front.engine.output(iid)["Result"] == 7
        assert front.obs.tracer.export() == []
        assert worker.obs.tracer.export() == []


class TestMessageBusHeaders:
    def test_headers_round_trip_and_plain_receive(self):
        bus = MessageBus()
        bus.send("q", {"x": 1}, headers={"trace_id": "t1-000001"})
        msg_id, body, headers = bus.receive_with_headers("q")
        assert body == {"x": 1}
        assert headers == {"trace_id": "t1-000001"}
        bus.nack("q", msg_id)
        # The headers survive redelivery; receive() hides them.
        msg_id, body = bus.receive("q")
        assert body == {"x": 1}
        bus.ack("q", msg_id)

    def test_stats_track_queue_activity(self):
        bus = MessageBus()
        bus.send("q", {"n": 1})
        bus.send("q", {"n": 2})
        msg_id, __ = bus.receive("q")
        bus.nack("q", msg_id)
        msg_id, __ = bus.receive("q")
        bus.ack("q", msg_id)
        stats = bus.stats("q")
        assert stats["sent"] == 2
        assert stats["delivered"] == 2
        assert stats["acked"] == 1
        assert stats["nacked"] == 1
        assert stats["redelivered"] >= 1
