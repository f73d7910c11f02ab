"""Engine-level observability: metrics, spans, hooks, and the
zero-overhead-when-off contract (disabled engines expose null
components and refuse hook subscriptions)."""

import json

import pytest

from repro.errors import ObservabilityError
from repro.obs import (
    DISABLED,
    ActivityCompleted,
    EngineCrashed,
    EngineRecovered,
    JournalSynced,
    NavigatorDispatched,
    Observability,
    ProcessFinished,
    WorklistTransition,
    resolve_observability,
)
from repro.obs.export import (
    engine_snapshot,
    span_tree_lines,
    to_prometheus_text,
    write_snapshot,
)
from repro.store import DurableStore
from repro.wfms import (
    Activity,
    DataType,
    Engine,
    ProcessDefinition,
    VariableDecl,
)
from repro.wfms.model import ActivityKind


def sequential_engine(observability=True, store=None, **engine_kwargs):
    engine = Engine(store=store, observability=observability, **engine_kwargs)
    engine.register_program("ok", lambda ctx: 0, "no-op")
    definition = ProcessDefinition("Seq")
    definition.add_activity(Activity("A", program="ok"))
    definition.add_activity(Activity("B", program="ok"))
    definition.connect("A", "B")
    engine.register_definition(definition)
    return engine


class TestResolveObservability:
    def test_none_and_false_are_the_disabled_singleton(self):
        assert resolve_observability(None) is DISABLED
        assert resolve_observability(False) is DISABLED
        assert not DISABLED.enabled

    def test_true_builds_a_fresh_bundle(self):
        obs = resolve_observability(True)
        assert obs.enabled
        assert obs is not resolve_observability(True)

    def test_instance_passthrough(self):
        obs = Observability()
        assert resolve_observability(obs) is obs

    def test_bad_value_rejected(self):
        with pytest.raises(TypeError):
            resolve_observability("yes")


class TestDisabledEngine:
    def test_default_engine_is_disabled(self):
        engine = Engine()
        assert engine.obs is DISABLED
        assert not engine.obs.enabled

    def test_subscribe_on_disabled_engine_raises(self):
        engine = Engine()
        with pytest.raises(ObservabilityError):
            engine.obs.hooks.subscribe(NavigatorDispatched, lambda e: None)

    def test_disabled_run_collects_nothing(self):
        engine = sequential_engine(observability=None)
        engine.run_process("Seq")
        assert engine.obs.metrics.collect() == []
        assert engine.obs.tracer.export() == []


class TestEngineMetrics:
    def test_process_and_activity_counters(self):
        engine = sequential_engine()
        engine.run_process("Seq")
        metrics = engine.obs.metrics
        started = metrics.get("wfms_processes_started_total")
        assert started.labels("Seq").value == 1
        finished = metrics.get("wfms_processes_finished_total")
        assert finished.labels("Seq").value == 1
        completions = metrics.get("wfms_activity_completions_total")
        assert completions.labels("terminated").value == 2
        assert metrics.get("wfms_instances_running").value == 0
        hist = metrics.get("wfms_activity_seconds")
        assert hist.count == 2

    def test_running_gauge_tracks_open_instances(self):
        engine = sequential_engine()
        engine.start_process("Seq")
        gauge = engine.obs.metrics.get("wfms_instances_running")
        assert gauge.value == 1
        engine.run()
        assert gauge.value == 0


class TestEngineSpans:
    def test_activity_spans_parented_to_instance_span(self):
        engine = sequential_engine()
        result = engine.run_process("Seq")
        tracer = engine.obs.tracer
        [root] = tracer.spans(name="process Seq")
        assert root.finished
        assert root.attributes["instance_id"] == result.instance_id
        for activity in ("A", "B"):
            [span] = tracer.spans(name="activity %s" % activity)
            assert span.parent_id == root.span_id
            assert span.trace_id == root.trace_id
        assert tracer.open_spans() == []

    def test_block_child_instance_joins_parent_trace(self):
        engine = Engine(observability=True)
        engine.register_program("ok", lambda ctx: 0)
        child = ProcessDefinition("Child")
        child.add_activity(Activity("Inner", program="ok"))
        engine.register_definition(child)
        parent = ProcessDefinition("Parent")
        parent.add_activity(
            Activity("Call", kind=ActivityKind.PROCESS, subprocess="Child")
        )
        engine.register_definition(parent)
        engine.run_process("Parent")
        tracer = engine.obs.tracer
        [parent_span] = tracer.spans(name="process Parent")
        [call_span] = tracer.spans(name="activity Call")
        [child_span] = tracer.spans(name="process Child")
        [inner_span] = tracer.spans(name="activity Inner")
        # one trace, linked parent -> Call -> child instance -> Inner
        assert call_span.parent_id == parent_span.span_id
        assert child_span.parent_id == call_span.span_id
        assert inner_span.parent_id == child_span.span_id
        assert (
            parent_span.trace_id
            == call_span.trace_id
            == child_span.trace_id
            == inner_span.trace_id
        )

    def test_each_attempt_gets_its_own_span(self):
        engine = Engine(observability=True)
        calls = {"n": 0}

        def flaky(ctx):
            calls["n"] += 1
            ctx.set_output("Done", 1 if calls["n"] >= 3 else 0)
            return 0

        engine.register_program("flaky", flaky)
        definition = ProcessDefinition("Retry")
        definition.add_activity(
            Activity(
                "T",
                program="flaky",
                output_spec=[VariableDecl("Done", DataType.LONG)],
                exit_condition="Done = 1",
                max_iterations=10,
            )
        )
        engine.register_definition(definition)
        engine.run_process("Retry")
        spans = engine.obs.tracer.spans(name="activity T")
        assert [s.attributes["attempt"] for s in spans] == [1, 2, 3]
        completions = engine.obs.metrics.get(
            "wfms_activity_completions_total"
        )
        assert completions.labels("rescheduled").value == 2
        assert completions.labels("terminated").value == 1


class TestEngineHooks:
    def test_dispatch_completion_finish_events(self):
        engine = sequential_engine()
        events = []
        for event_type in (
            NavigatorDispatched,
            ActivityCompleted,
            ProcessFinished,
        ):
            engine.obs.hooks.subscribe(event_type, events.append)
        engine.run_process("Seq")
        kinds = [type(e).__name__ for e in events]
        assert kinds.count("NavigatorDispatched") == 2
        assert kinds.count("ActivityCompleted") == 2
        assert kinds[-1] == "ProcessFinished"

    def test_raising_subscriber_does_not_break_navigation(self):
        engine = sequential_engine()

        def bad(event):
            raise RuntimeError("dashboard bug")

        engine.obs.hooks.subscribe(NavigatorDispatched, bad)
        result = engine.run_process("Seq")
        assert result.finished
        assert len(engine.obs.hooks.failures) == 2  # one per dispatch


class TestWorklistObservability:
    def test_manual_item_transitions(self):
        from repro.wfms.model import StaffAssignment, StartMode
        from repro.wfms.organization import demo_organization

        engine = Engine(
            observability=True, organization=demo_organization()
        )
        engine.register_program("ok", lambda ctx: 0)
        definition = ProcessDefinition("ManualFlow")
        definition.add_activity(
            Activity(
                "Approve",
                program="ok",
                start_mode=StartMode.MANUAL,
                staff=StaffAssignment(roles=("clerk",)),
            )
        )
        engine.register_definition(definition)
        events = []
        engine.obs.hooks.subscribe(WorklistTransition, events.append)
        iid = engine.start_process("ManualFlow")
        engine.run()
        item = engine.worklist("bob")[0]
        engine.claim(item.item_id, "bob")
        engine.start_item(item.item_id)
        assert engine.instance_state(iid) == "finished"
        transitions = [e.transition for e in events]
        assert transitions == ["offered", "claimed", "completed"]
        assert events[1].user == "bob"
        counter = engine.obs.metrics.get("wfms_worklist_transitions_total")
        assert counter.labels("offered").value == 1
        assert counter.labels("claimed").value == 1
        assert engine.obs.metrics.get("wfms_worklist_open_items").value == 0


class TestJournalObservability:
    def test_always_sync_commits_per_append(self, tmp_path):
        engine = sequential_engine(store=DurableStore(tmp_path / "j"))
        synced = []
        engine.obs.hooks.subscribe(JournalSynced, synced.append)
        engine.run_process("Seq")
        appends = engine.obs.metrics.get("wfms_journal_appends_total")
        commits = engine.obs.metrics.get("wfms_journal_commits_total")
        assert appends.value == len(engine.journal.records())
        assert commits.labels("append").value == appends.value
        assert len(synced) == appends.value
        assert all(e.reason == "append" for e in synced)

    def test_batch_sync_reports_reasons_and_unflushed(self, tmp_path):
        engine = sequential_engine(
            store=DurableStore(
                tmp_path / "j",
                sync="batch",
                batch_size=1000,
                batch_interval=3600.0,
            )
        )
        engine.run_process("Seq")
        unflushed = engine.obs.metrics.get("wfms_journal_unflushed")
        assert unflushed.value == len(engine.journal.records())
        engine.journal.flush()
        assert unflushed.value == 0
        commits = engine.obs.metrics.get("wfms_journal_commits_total")
        assert commits.labels("flush").value >= 1
        spans = engine.obs.tracer.spans(name="journal.commit")
        assert spans and spans[-1].attributes["reason"] == "flush"


class TestCrashRecoverObservability:
    def test_crash_and_recover_counters_and_events(self, tmp_path):
        path = str(tmp_path / "j")
        engine = sequential_engine(store=DurableStore(path))
        # Two live instances, one completion each: a finished instance
        # is archived, and recovery never replays archived roots.
        engine.start_process("Seq")
        engine.start_process("Seq")
        engine.step()
        engine.step()
        crashes = []
        engine.obs.hooks.subscribe(EngineCrashed, crashes.append)
        engine.crash()
        assert len(crashes) == 1
        assert (
            engine.obs.metrics.get("wfms_engine_crashes_total").value == 1
        )

        fresh = sequential_engine(
            observability=True, store=DurableStore(path)
        )
        recovered = []
        fresh.obs.hooks.subscribe(EngineRecovered, recovered.append)
        replayed = fresh.recover()
        assert replayed == 2
        assert recovered[0].replayed == 2
        assert (
            fresh.obs.metrics.get("wfms_recovery_replayed_total").value == 2
        )
        [span] = fresh.obs.tracer.spans(name="recovery.replay")
        assert span.finished
        assert span.attributes["replayed"] == 2

    def test_recovered_instance_rejoins_its_trace(self, tmp_path):
        path = str(tmp_path / "j")
        engine = sequential_engine(store=DurableStore(path))
        iid = engine.start_process("Seq")
        [old_root] = engine.obs.tracer.spans(name="process Seq")
        trace = {
            r["instance"]: r.get("trace")
            for r in engine.journal.records()
            if r["type"] == "process_started"
        }
        assert trace[iid]["trace_id"] == old_root.trace_id
        engine.crash()

        fresh = sequential_engine(
            observability=True, store=DurableStore(path)
        )
        fresh.recover()
        fresh.run()
        assert fresh.instance_state(iid) == "finished"
        [new_root] = fresh.obs.tracer.spans(name="process Seq")
        # same trace across the crash: the journaled linkage was used
        assert new_root.trace_id == old_root.trace_id


class TestFMTMStageSpans:
    SAGA = """
    MODEL SAGA 'booking'
      STEP 's1'
      STEP 's2'
    END 'booking'
    """

    def _pipeline(self, observability=None):
        from repro.core.fmtm import FMTMPipeline
        from repro.core.saga_translator import translate_saga
        from repro.core.sagas import SagaSpec, SagaStep

        engine = Engine(observability=observability)
        translation = translate_saga(
            SagaSpec("booking", [SagaStep("s1"), SagaStep("s2")])
        )
        for name in translation.required_programs:
            engine.register_program(name, lambda ctx: 0, replace=True)
        return FMTMPipeline(engine)

    def test_report_stage_api_preserved(self):
        from repro.core.fmtm import STAGES

        report = self._pipeline().process_specification(self.SAGA)
        assert report.stage_names() == list(STAGES)
        assert all(r.seconds >= 0.0 for r in report.stages)
        assert report.stage("emit_fdl").detail

    def test_enabled_engine_gets_stage_spans_and_histogram(self):
        pipeline = self._pipeline(observability=True)
        pipeline.process_specification(self.SAGA)
        tracer = pipeline.engine.obs.tracer
        [root] = tracer.spans(name="fmtm.pipeline")
        children = [
            s
            for s in tracer.spans()
            if s.parent_id == root.span_id
        ]
        assert len(children) == 6
        hist = pipeline.engine.obs.metrics.get("fmtm_stage_seconds")
        assert hist.labels("parse_specification").count == 1

    def test_disabled_engine_keeps_spans_private(self):
        pipeline = self._pipeline()
        report = pipeline.process_specification(self.SAGA)
        assert len(report.stages) == 6
        assert pipeline.engine.obs.tracer.export() == []


class TestExportAndMonitor:
    def test_snapshot_round_trip_through_monitor(self, tmp_path):
        from repro.tools.monitor import render_snapshot

        engine = sequential_engine()
        engine.run_process("Seq")
        path = tmp_path / "snap.json"
        write_snapshot(engine, path)
        snapshot = json.loads(path.read_text())
        assert snapshot["observability_enabled"] is True
        lines = render_snapshot(snapshot)
        text = "\n".join(lines)
        assert "PROCESSES (1)" in text
        assert "wfms_processes_started_total" in text
        assert "process Seq [process]" in text

    def test_monitor_cli_commands(self, tmp_path, capsys):
        from repro.tools.monitor import main

        engine = sequential_engine()
        engine.run_process("Seq")
        path = str(tmp_path / "snap.json")
        write_snapshot(engine, path)
        assert main(["view", path]) == 0
        assert main(["prom", path]) == 0
        assert main(["spans", path]) == 0
        out = capsys.readouterr().out
        assert "wfms_processes_started_total" in out
        assert main(["view", str(tmp_path / "missing.json")]) == 1

    def test_prometheus_text_of_engine_run(self):
        engine = sequential_engine()
        engine.run_process("Seq")
        text = to_prometheus_text(engine.obs.metrics)
        assert "# TYPE wfms_processes_started_total counter" in text
        assert 'wfms_processes_started_total{definition="Seq"} 1' in text

    def test_span_tree_renders_hierarchy(self):
        engine = sequential_engine()
        engine.run_process("Seq")
        lines = span_tree_lines(engine.obs.tracer.export())
        assert lines[0].startswith("process Seq")
        assert lines[1].startswith("  activity A")

    def test_engine_snapshot_disabled_engine(self):
        engine = sequential_engine(observability=None)
        engine.run_process("Seq")
        snapshot = engine_snapshot(engine)
        assert snapshot["observability_enabled"] is False
        assert snapshot["metrics"] == []
        assert snapshot["spans"] == []
        assert len(snapshot["processes"]) == 1
