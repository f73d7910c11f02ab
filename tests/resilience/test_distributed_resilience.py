"""Distributed resilience: dead-letter cap, pending-reply leak fix,
deadlock detection, request timeouts and circuit breaking."""

import pytest

from repro.errors import WorkflowError
from repro.resilience import CircuitBreaker, FaultInjector, FaultRule, InjectedCrash
from repro.store import DurableStore
from repro.wfms.distributed import WorkflowNode, run_cluster
from repro.wfms.messaging import MessageBus, dlq_name
from repro.workloads.distributed_demo import (
    configure_requester,
    configure_worker,
    make_requester,
    make_worker,
)


class TestDeadLetterCap:
    def test_poisoned_request_is_dead_lettered_at_the_cap(self):
        bus = MessageBus()
        worker = make_worker(bus, max_deliveries=3)
        bus.send(
            "node:worker",
            {
                "type": "request",
                "request_id": "front/pi-0001/Call",
                "process": "NoSuchProcess",
                "reply_to": "replies:front",
            },
        )
        # deliveries below the cap redeliver (the pre-existing
        # contract: a transient handler error must not lose the message)
        for __ in range(2):
            with pytest.raises(WorkflowError, match="does not serve"):
                worker.pump()
        # at the cap the message moves to the DLQ instead of wedging
        # the pump forever
        assert worker.pump() == 1
        assert bus.depth("node:worker") == 0
        dlq = dlq_name("node:worker")
        assert bus.depth(dlq) == 1
        assert bus.stats("node:worker")["dead_lettered"] == 1
        msg = bus.receive_with_headers(dlq)
        assert "does not serve" in msg[2]["dead-letter-reason"]
        # the pump is clean afterwards
        assert worker.pump() == 0

    def test_healthy_messages_after_the_poison_still_flow(self):
        bus = MessageBus()
        worker = make_worker(bus, max_deliveries=2)
        bus.send(
            "node:worker",
            {
                "type": "request",
                "request_id": "x/y/z",
                "process": "Nope",
                "reply_to": "replies:x",
            },
        )
        bus.send(
            "node:worker",
            {
                "type": "request",
                "request_id": "x/y/w",
                "process": "Double",
                "input": {"In": 4},
                "reply_to": "replies:x",
            },
        )
        with pytest.raises(WorkflowError):
            worker.pump()
        worker.pump()  # dead-letters the poison, handles the request
        worker.engine.run()
        worker.pump()  # flush the reply
        reply = bus.receive("replies:x")
        assert reply is not None
        assert reply[1]["output"]["Out"] == 8


class TestPendingLeakFix:
    def test_lost_instance_answers_with_error_reply(self):
        bus = MessageBus()
        worker = make_worker(bus)
        # a pending entry whose served instance does not exist (the
        # engine was rebuilt from a journal that never recorded it)
        worker._pending["front/pi-0001/Call"] = ("replies:front", {})
        sent = worker._flush_pending()
        assert sent == 1
        assert worker._pending == {}
        reply = bus.receive("replies:front")
        assert reply[1]["state"] == "error"
        assert "lost instance" in reply[1]["error"]
        assert reply[1]["request_id"] == "front/pi-0001/Call"

    def test_error_reply_escalates_the_requester(self, tmp_path):
        bus = MessageBus()
        worker = make_worker(
            bus, store_factory=lambda: DurableStore(tmp_path / "worker")
        )
        front = make_requester(bus)
        iid = front.engine.start_process("Front", {"N": 5})
        # ship the request and let the worker accept it (pending entry
        # registered, served instance started but not finished)
        front.engine.run()
        worker.pump()
        assert worker._pending
        # now lose the served instance the hard way: the engine dies
        # and is rebuilt over a journal that never recorded the start,
        # while the node's volatile pending table survives
        worker.engine.crash()
        active = tmp_path / "worker" / "journal" / "segment-00000000.jsonl"
        active.write_text("")
        worker.rebuild(configure_worker)
        run_cluster([worker, front], watch=[(front, iid)])
        # the error reply finished the remote activity with rc=1:
        # AddOne still ran on the default Base=0
        assert front.engine.output(iid)["Result"] == 1
        assert worker._pending == {}

    def test_finished_instance_still_replies_normally(self):
        bus = MessageBus()
        worker = make_worker(bus)
        front = make_requester(bus)
        iid = front.engine.start_process("Front", {"N": 5})
        run_cluster([worker, front], watch=[(front, iid)])
        assert front.engine.output(iid)["Result"] == 11


class TestDeadlockDetection:
    def test_watch_on_crashed_node_raises_naming_the_instance(self):
        bus = MessageBus()
        worker = make_worker(bus)
        front = make_requester(bus)
        iid = front.engine.start_process("Front", {"N": 2})
        front.engine.crash()
        with pytest.raises(WorkflowError, match="cluster deadlocked") as err:
            run_cluster([worker, front], watch=[(front, iid)])
        assert iid in str(err.value)
        assert "front" in str(err.value)
        assert "crashed" in str(err.value)

    def test_waiting_on_timers_is_not_a_deadlock(self):
        # a live counterpart that needs several poll rounds must not
        # trip the detector: timers advance instead
        bus = MessageBus()
        worker = make_worker(bus)
        front = make_requester(bus)
        iid = front.engine.start_process("Front", {"N": 3})
        rounds = run_cluster([worker, front], watch=[(front, iid)])
        assert front.engine.output(iid)["Result"] == 7
        assert rounds < 50


class TestRequestTimeout:
    def test_timeout_resends_then_escalates(self):
        bus = MessageBus()
        # no worker node at all: requests go unanswered forever
        front = make_requester(
            bus,
            observability=True,
            remote_kwargs={"timeout": 5.0, "retries": 1},
        )
        iid = front.engine.start_process("Front", {"N": 4})
        run_cluster([front], watch=[(front, iid)])
        # escalated with rc=1: the default Out=0 flows to AddOne
        assert front.engine.output(iid)["Result"] == 1
        # the original send plus one timed-out re-send
        assert bus.stats("node:worker")["sent"] == 2
        timeouts = front.obs.metrics.counter(
            "wfms_remote_timeouts_total", labels=("action",)
        )
        assert timeouts.labels("resent").value == 1
        assert timeouts.labels("escalated").value == 1

    def test_timely_reply_means_no_timeout(self):
        bus = MessageBus()
        worker = make_worker(bus)
        front = make_requester(
            bus,
            observability=True,
            remote_kwargs={"timeout": 50.0, "retries": 1},
        )
        iid = front.engine.start_process("Front", {"N": 6})
        run_cluster([worker, front], watch=[(front, iid)])
        assert front.engine.output(iid)["Result"] == 13
        timeouts = front.obs.metrics.counter(
            "wfms_remote_timeouts_total", labels=("action",)
        )
        assert timeouts.labels("resent").value == 0
        assert timeouts.labels("escalated").value == 0


class TestCircuitBreaker:
    def test_open_breaker_fails_fast_without_sending(self):
        bus = MessageBus()
        front = make_requester(
            bus,
            observability=True,
            remote_kwargs={"timeout": 2.0, "retries": 0},
            breaker_factory=lambda: CircuitBreaker(
                failure_threshold=1, reset_after=1000.0
            ),
        )
        iid1 = front.engine.start_process("Front", {"N": 1})
        run_cluster([front], watch=[(front, iid1)])
        assert front.engine.output(iid1)["Result"] == 1  # escalated
        assert bus.stats("node:worker")["sent"] == 1
        # the breaker opened on the timeout; the next call never sends
        iid2 = front.engine.start_process("Front", {"N": 2})
        run_cluster([front], watch=[(front, iid2)])
        assert front.engine.output(iid2)["Result"] == 1
        assert bus.stats("node:worker")["sent"] == 1  # unchanged
        transitions = front.obs.metrics.counter(
            "wfms_breaker_transitions_total", labels=("state",)
        )
        assert transitions.labels("open").value == 1

    def test_half_open_trial_recovers_when_worker_returns(self):
        bus = MessageBus()
        front = make_requester(
            bus,
            remote_kwargs={"timeout": 2.0, "retries": 0},
            breaker_factory=lambda: CircuitBreaker(
                failure_threshold=1, reset_after=10.0
            ),
        )
        iid1 = front.engine.start_process("Front", {"N": 1})
        run_cluster([front], watch=[(front, iid1)])
        assert front._breakers["worker"].state == "open"
        # cooldown passes; a worker appears; the trial succeeds
        front.engine.advance_clock(10.0)
        worker = make_worker(bus)
        iid2 = front.engine.start_process("Front", {"N": 3})
        run_cluster([worker, front], watch=[(front, iid2)])
        assert front.engine.output(iid2)["Result"] == 7
        assert front._breakers["worker"].state == "closed"


class TestInjectedNodeCrash:
    def test_pump_crash_schedule(self, tmp_path):
        injector = FaultInjector(
            [FaultRule("node.pump", "crash", match="worker", schedule={2})]
        )
        bus = MessageBus()
        worker = make_worker(
            bus,
            store_factory=lambda: DurableStore(tmp_path / "worker"),
            fault_injector=injector,
        )
        assert worker.pump() == 0  # pump 1: no crash
        with pytest.raises(InjectedCrash, match="worker"):
            worker.pump()  # pump 2: the scheduled crash
        assert worker.engine.crashed
        worker.rebuild(configure_worker)
        assert not worker.engine.crashed
        assert worker.pump() == 0  # pump 3: alive again
