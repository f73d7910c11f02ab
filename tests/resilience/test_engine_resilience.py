"""Retry/timeout/escalation semantics threaded through the engine."""

import pytest

from repro.errors import ProgramError
from repro.obs import ActivityEscalated, Observability, RetryScheduled
from repro.resilience import FaultInjector, FaultRule, RetryPolicy, Timeout
from repro.store import DurableStore
from repro.wfms.audit import AuditEvent
from repro.wfms.engine import Engine
from repro.wfms.model import Activity, ProcessDefinition
from repro.wfms.datatypes import DataType, VariableDecl


def single_activity_definition(program="flaky", name="P"):
    defn = ProcessDefinition(name)
    defn.add_activity(Activity("A", program=program))
    return defn


def branching_definition():
    """A -> Ok on RC = 0, A -> Fallback on RC = 7."""
    defn = ProcessDefinition("P")
    defn.add_activity(Activity("A", program="flaky"))
    defn.add_activity(Activity("Ok", program="nop"))
    defn.add_activity(Activity("Fallback", program="nop"))
    defn.connect("A", "Ok", "RC = 0")
    defn.connect("A", "Fallback", "RC = 7")
    return defn


def failing_n_times(n):
    calls = []

    def program(ctx):
        calls.append(1)
        if len(calls) <= n:
            raise RuntimeError("boom %d" % len(calls))
        return 0

    return program, calls


class TestRetry:
    def test_transient_failure_retries_to_success(self):
        engine = Engine()
        program, calls = failing_n_times(2)
        engine.register_program("flaky", program)
        engine.register_definition(single_activity_definition())
        engine.set_retry(
            "flaky", RetryPolicy(5, backoff="fixed", base_delay=2.0)
        )
        iid = engine.start_process("P")
        engine.drain()
        assert engine.instance_state(iid) == "finished"
        assert len(calls) == 3
        # two backoffs of 2 logical seconds each
        assert engine.clock == 4.0
        retries = engine.audit.records(iid, AuditEvent.ACTIVITY_RETRY)
        assert [r.detail["retry"] for r in retries] == [1, 2]
        assert all(r.detail["delay"] == 2.0 for r in retries)

    def test_zero_delay_retries_without_clock_movement(self):
        engine = Engine()
        program, calls = failing_n_times(3)
        engine.register_program("flaky", program)
        engine.register_definition(single_activity_definition())
        engine.set_retry("flaky", RetryPolicy(5, backoff="fixed"))
        iid = engine.start_process("P")
        engine.run()  # no drain needed: delay is 0
        assert engine.instance_state(iid) == "finished"
        assert len(calls) == 4
        assert engine.clock == 0.0

    def test_without_policy_the_failure_surfaces(self):
        engine = Engine()
        program, __ = failing_n_times(1)
        engine.register_program("flaky", program)
        engine.register_definition(single_activity_definition())
        engine.start_process("P")
        with pytest.raises(ProgramError, match="boom"):
            engine.run()

    def test_exhaustion_without_escalate_rc_reraises(self):
        engine = Engine()
        program, calls = failing_n_times(100)
        engine.register_program("flaky", program)
        engine.register_definition(single_activity_definition())
        engine.set_retry("flaky", RetryPolicy(2, backoff="fixed"))
        engine.start_process("P")
        with pytest.raises(ProgramError, match="boom 3"):
            engine.run()
        assert len(calls) == 3  # initial + 2 retries

    def test_completed_attempt_resets_the_retry_budget(self):
        # each activity gets its own budget; a success clears the count
        engine = Engine()
        fails = {"A": 2, "B": 2}
        calls = {"A": 0, "B": 0}

        def program(ctx):
            calls[ctx.activity] += 1
            if calls[ctx.activity] <= fails[ctx.activity]:
                raise RuntimeError("boom")
            return 0

        engine.register_program("flaky", program)
        defn = ProcessDefinition("P")
        defn.add_activity(Activity("A", program="flaky"))
        defn.add_activity(Activity("B", program="flaky"))
        defn.connect("A", "B")
        engine.register_definition(defn)
        engine.set_retry("flaky", RetryPolicy(2, backoff="fixed"))
        iid = engine.start_process("P")
        engine.run()
        assert engine.instance_state(iid) == "finished"
        assert calls == {"A": 3, "B": 3}


class TestEscalation:
    def test_exhaustion_escalates_with_configured_rc(self):
        engine = Engine()
        program, calls = failing_n_times(100)
        engine.register_program("flaky", program)
        engine.register_program("nop", lambda ctx: 0)
        engine.register_definition(branching_definition())
        engine.set_retry(
            "flaky", RetryPolicy(1, backoff="fixed", escalate_rc=7)
        )
        iid = engine.start_process("P")
        engine.drain()
        result = engine.result(iid)
        assert result.finished
        assert "Fallback" in result.execution_order
        assert "Ok" in result.dead_activities
        assert len(calls) == 2
        escalations = engine.audit.records(
            iid, AuditEvent.ACTIVITY_ESCALATED
        )
        assert len(escalations) == 1
        assert escalations[0].detail["reason"] == "retries_exhausted"
        assert escalations[0].detail["rc"] == 7

    def test_injected_faults_drive_the_retry_loop(self):
        injector = FaultInjector(
            [FaultRule("program", match="flaky", schedule={1, 2})]
        )
        engine = Engine(fault_injector=injector)
        engine.register_program("flaky", lambda ctx: 0)
        engine.register_definition(single_activity_definition())
        engine.set_retry(
            "flaky", RetryPolicy(3, backoff="fixed", base_delay=1.0)
        )
        iid = engine.start_process("P")
        engine.drain()
        assert engine.instance_state(iid) == "finished"
        assert injector.trace() == [
            ("program", "flaky", "raise", 1),
            ("program", "flaky", "raise", 2),
        ]

    def test_retry_timeout_escalates_with_timeout_rc(self):
        engine = Engine()
        program, calls = failing_n_times(100)
        engine.register_program("flaky", program)
        engine.register_program("nop", lambda ctx: 0)
        engine.register_definition(branching_definition())
        engine.set_retry(
            "flaky",
            RetryPolicy(100, backoff="fixed", base_delay=5.0, escalate_rc=0),
        )
        engine.set_timeout("flaky", Timeout(12.0, escalate_rc=7))
        iid = engine.start_process("P")
        engine.drain()
        result = engine.result(iid)
        assert result.finished
        assert "Fallback" in result.execution_order
        # attempts at t=0, 5, 10 fail within budget; the t=15 failure
        # is past the 12-second budget and escalates
        assert len(calls) == 4
        escalations = engine.audit.records(
            iid, AuditEvent.ACTIVITY_ESCALATED
        )
        assert escalations[0].detail["reason"] == "timeout"


class TestPollTimeout:
    def test_polling_loop_escalates_when_budget_expires(self):
        engine = Engine()
        polls = []

        def poll(ctx):
            polls.append(engine.clock)
            ctx.output.set("Done", 0)  # the reply never comes
            return 0

        engine.register_program("poll", poll)
        defn = ProcessDefinition("P")
        defn.add_activity(
            Activity(
                "A",
                program="poll",
                output_spec=[VariableDecl("Done", DataType.LONG)],
                exit_condition="Done = 1",
            )
        )
        engine.register_definition(defn)
        engine.set_reschedule_delay("poll", 2.0)
        engine.set_timeout("poll", Timeout(7.0, escalate_rc=9))
        iid = engine.start_process("P")
        engine.drain()
        assert engine.instance_state(iid) == "finished"
        # polls at t=0,2,4,6; the t=8 completion is past the budget
        assert polls == [0.0, 2.0, 4.0, 6.0, 8.0]
        instance = engine.navigator.instance(iid)
        assert instance.activity("A").output.return_code == 9

    def test_both_escalation_paths_keep_their_audit_and_events(self):
        """The poll timeout (found by the exit-condition check) audits
        ACTIVITY_FINISHED first and no ``error``; retry exhaustion
        audits ESCALATED before the finish, with the error.  Both
        count and publish alike."""
        obs = Observability()
        events = []
        obs.hooks.subscribe(ActivityEscalated, events.append)
        engine = Engine(observability=obs)
        engine.register_program("poll", lambda ctx: 0)
        program, __ = failing_n_times(100)
        engine.register_program("flaky", program)
        engine.register_program("nop", lambda ctx: 0)
        poll = ProcessDefinition("Poll")
        poll.add_activity(
            Activity(
                "A",
                program="poll",
                output_spec=[VariableDecl("Done", DataType.LONG)],
                exit_condition="Done = 1",
            )
        )
        engine.register_definition(poll)
        engine.register_definition(branching_definition())
        engine.set_reschedule_delay("poll", 2.0)
        engine.set_timeout("poll", Timeout(3.0, escalate_rc=9))
        engine.set_retry(
            "flaky", RetryPolicy(1, backoff="fixed", escalate_rc=7)
        )
        polled = engine.start_process("Poll")
        engine.drain()
        retried = engine.start_process("P")
        engine.drain()

        def tail(iid, activity):
            rows = [
                (r.event, list(r.detail.items()))
                for r in engine.audit.records(iid, activity=activity)
            ]
            return rows[-3:]

        assert tail(polled, "A") == [
            (AuditEvent.ACTIVITY_FINISHED, [("rc", 0), ("attempt", 3)]),
            (
                AuditEvent.ACTIVITY_ESCALATED,
                [("reason", "timeout"), ("rc", 9)],
            ),
            (AuditEvent.ACTIVITY_TERMINATED, [("rc", 9)]),
        ]
        escalated = engine.audit.records(
            retried, AuditEvent.ACTIVITY_ESCALATED
        )
        assert [list(r.detail) for r in escalated] == [
            ["reason", "rc", "error"]
        ]
        assert escalated[0].detail["reason"] == "retries_exhausted"
        assert [(e.reason, e.return_code) for e in events] == [
            ("timeout", 9),
            ("retries_exhausted", 7),
        ]
        counter = obs.metrics.counter(
            "wfms_activity_escalations_total", labels=("reason",)
        )
        assert counter.labels("timeout").value == 1
        assert counter.labels("retries_exhausted").value == 1


class TestObservability:
    def test_retry_and_escalation_events_and_counters(self):
        obs = Observability()
        events = []
        obs.hooks.subscribe(RetryScheduled, events.append)
        obs.hooks.subscribe(ActivityEscalated, events.append)
        engine = Engine(observability=obs)
        program, __ = failing_n_times(100)
        engine.register_program("flaky", program)
        engine.register_program("nop", lambda ctx: 0)
        engine.register_definition(branching_definition())
        engine.set_retry(
            "flaky", RetryPolicy(2, backoff="fixed", escalate_rc=7)
        )
        iid = engine.start_process("P")
        engine.drain()
        kinds = [type(e).__name__ for e in events]
        assert kinds == [
            "RetryScheduled",
            "RetryScheduled",
            "ActivityEscalated",
        ]
        assert events[0].retry == 1 and events[1].retry == 2
        assert events[2].reason == "retries_exhausted"
        assert events[2].return_code == 7
        metrics = obs.metrics
        assert (
            metrics.counter("wfms_activity_retries_total").value == 2
        )
        assert (
            metrics.counter(
                "wfms_activity_escalations_total",
                labels=("reason",),
            )
            .labels("retries_exhausted")
            .value
            == 1
        )


class TestEscalationReplay:
    def _build(self, path, succeed):
        engine = Engine(store=DurableStore(path))
        calls = []

        def program(ctx):
            calls.append(1)
            if not succeed:
                raise RuntimeError("boom")
            return 0

        engine.register_program("flaky", program)
        engine.register_program("nop", lambda ctx: 0)
        engine.register_definition(branching_definition())
        engine.set_retry(
            "flaky", RetryPolicy(1, backoff="fixed", escalate_rc=7)
        )
        return engine, calls

    def test_escalated_completion_replays_identically(self, tmp_path):
        reference, __ = self._build(tmp_path / "ref", succeed=False)
        ref_iid = reference.start_process("P")
        reference.drain()
        before = reference.result(ref_iid)
        assert "Fallback" in before.execution_order

        # Crash once A's escalation is journaled but Fallback has not
        # run: a finished instance is archived, and recovery never
        # replays archived roots.
        path = tmp_path / "j"
        engine, __ = self._build(path, succeed=False)
        iid = engine.start_process("P")
        while engine.activity_states(iid)["A"] != "terminated":
            assert engine.step()
        assert engine.instance_state(iid) == "running"
        engine.crash()

        # The recovered engine replays the journaled escalation even
        # though the program would now succeed: the decision was made
        # once and journaled, not re-derived.
        engine2, calls2 = self._build(path, succeed=True)
        engine2.recover()
        engine2.run()
        after = engine2.result(iid)
        assert after.state == "finished"
        assert calls2 == []  # nothing re-invoked
        assert sorted(after.execution_order) == sorted(
            before.execution_order
        )
        assert after.dead_activities == before.dead_activities
