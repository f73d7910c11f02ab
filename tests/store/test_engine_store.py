"""Engine + DurableStore integration: checkpointed recovery replays
only the suffix, equals full-journal replay bit for bit, survives torn
snapshots, and archives finished roots out of live memory."""

import os

import pytest

from repro.core.bindings import register_programs
from repro.core.saga_translator import translate_saga
from repro.core.sagas import SagaSpec, SagaStep
from repro.errors import JournalError, NavigationError, WorkflowError
from repro.resilience import FaultInjector, FaultRule
from repro.store import DurableStore
from repro.tx import AbortScript, SimDatabase, Subtransaction
from repro.tx.subtransaction import write_value
from repro.wfms import (
    Activity,
    DataType,
    Engine,
    ProcessDefinition,
    VariableDecl,
)
from repro.wfms.model import StaffAssignment, StartMode
from repro.wfms.organization import Organization


def make_org():
    org = Organization()
    org.add_role("clerk")
    org.add_person("ada", roles=("clerk",))
    return org


def register(engine, calls=None):
    def program(ctx):
        if calls is not None:
            calls.append(ctx.activity)
        ctx.set_output("X", len(calls) if calls is not None else 0)
        return 0

    engine.register_program("p", program)
    d = ProcessDefinition("Flow")
    for name in ("A", "B", "C"):
        d.add_activity(
            Activity(
                name,
                program="p",
                output_spec=[VariableDecl("X", DataType.LONG)],
            )
        )
    d.connect("A", "B")
    d.connect("B", "C")
    engine.register_definition(d)
    manual = ProcessDefinition("Manual")
    manual.add_activity(
        Activity(
            "Approve",
            program="p",
            start_mode=StartMode.MANUAL,
            staff=StaffAssignment(roles=("clerk",)),
            output_spec=[VariableDecl("X", DataType.LONG)],
        )
    )
    engine.register_definition(manual)
    return engine


def build(directory, *, every=3, injector=None, calls=None, **kwargs):
    store = DurableStore(directory, checkpoint_every_records=every, **kwargs)
    engine = Engine(
        organization=make_org(), fault_injector=injector, store=store
    )
    return register(engine, calls)


class TestCheckpointedRecovery:
    def test_recovery_replays_only_the_suffix(self, tmp_path):
        """The acceptance gate: after N completed instances, recovery
        consumes only the records past the last checkpoint — counted,
        not assumed."""
        engine = build(tmp_path, every=4)
        for __ in range(5):
            engine.start_process("Flow")
            engine.run()
        total = engine.store.journal.next_index
        covered = engine.store.status()["last_checkpoint_offset"]
        assert covered is not None and 0 < covered <= total
        engine.crash()

        rebuilt = build(tmp_path, every=4)
        rebuilt.recover()
        summary = rebuilt.store.last_recovery
        assert summary["checkpoint"] is not None
        assert summary["offset"] == covered
        assert summary["suffix_records"] == total - covered
        assert summary["suffix_records"] < total

    def test_recovered_state_equals_full_replay(self, tmp_path):
        """Checkpoint + suffix must reconstruct exactly what a store
        with no checkpoint policy (full journal replay) reconstructs
        from the same history."""
        store_calls, plain_calls = [], []
        store_engine = build(tmp_path / "s", every=2, calls=store_calls)
        plain = Engine(
            store=DurableStore(tmp_path / "plain"), organization=make_org()
        )
        register(plain, plain_calls)

        ids = []
        for engine in (store_engine, plain):
            for __ in range(3):
                iid = engine.start_process("Flow")
                engine.run()
            mid = engine.start_process("Manual", starter="ada")
            engine.run()
            ids.append(mid)
        assert ids[0] == ids[1]
        store_engine.crash()
        plain.crash()

        recovered = build(tmp_path / "s", every=2)
        recovered.recover()
        plain2 = Engine(
            store=DurableStore(tmp_path / "plain"), organization=make_org()
        )
        register(plain2)
        plain2.recover()

        for n in range(1, 4):
            iid = "pi-%04d" % n
            assert recovered.instance_state(iid) == "finished"
            assert recovered.instance_state(iid) == plain2.instance_state(iid)
            assert recovered.output(iid) == plain2.output(iid)
            assert recovered.execution_order(iid) == plain2.execution_order(
                iid
            )
        mid = ids[0]
        assert recovered.instance_state(mid) == "running"
        assert recovered.activity_states(mid) == plain2.activity_states(mid)
        # the offered manual item survives in both worlds
        assert [i.item_id for i in recovered.worklist("ada")] == [
            i.item_id for i in plain2.worklist("ada")
        ]
        # and both engines finish the flow identically
        for engine in (recovered, plain2):
            item = engine.worklist("ada")[0]
            engine.claim(item.item_id, "ada")
            engine.start_item(item.item_id)
        assert recovered.instance_state(mid) == "finished"
        assert recovered.output(mid) == plain2.output(mid)

    def test_fresh_starts_never_collide_with_archived_ids(self, tmp_path):
        """Roots started *and* archived after the last checkpoint have
        no surviving journal records; the id sequence must still
        advance past them on recovery."""
        engine = build(tmp_path, every=1000)  # no automatic checkpoints
        engine.start_process("Flow")
        engine.run()
        engine.checkpoint()
        archived = []
        for __ in range(2):  # started + archived entirely post-checkpoint
            iid = engine.start_process("Flow")
            engine.run()
            archived.append(iid)
        engine.crash()

        rebuilt = build(tmp_path, every=1000)
        rebuilt.recover()
        fresh = rebuilt.start_process("Flow")
        assert fresh not in set(archived) | {"pi-0001"}
        rebuilt.run()
        assert rebuilt.instance_state(fresh) == "finished"
        for iid in archived:
            assert rebuilt.instance_state(iid) == "finished"

    def test_torn_snapshot_falls_back_to_previous(self, tmp_path):
        """A crash *during* snapshot write leaves a torn checkpoint
        file; recovery skips it and replays more from the previous one
        — longer replay, never wrong state."""
        injector = FaultInjector(
            [FaultRule("snapshot.write", schedule={2})], seed=1
        )
        engine = build(tmp_path, every=2, injector=injector)
        with pytest.raises(JournalError):
            # first checkpoint lands, the second tears mid-write
            engine.start_process("Flow")
            engine.run()
        assert engine.crashed

        rebuilt = build(tmp_path, every=2)
        rebuilt.recover()
        summary = rebuilt.store.last_recovery
        assert summary["skipped_checkpoints"] == 1  # the torn one
        assert summary["offset"] == 2  # back on the first checkpoint
        assert summary["suffix_records"] > 0  # longer replay, by count
        # pi-0001 finished and archived *before* the torn checkpoint;
        # the archive wins over the stale mid-flight copy in the older
        # snapshot, so the longer replay lands on the right answer
        assert summary["archived_skipped"] == 1
        assert rebuilt.instance_state("pi-0001") == "finished"
        assert rebuilt.output("pi-0001")["_RC"] == 0
        # and fresh work proceeds with a non-colliding id
        fresh = rebuilt.start_process("Flow")
        assert fresh != "pi-0001"
        rebuilt.run()
        assert rebuilt.instance_state(fresh) == "finished"

    def test_newest_checkpoint_corrupted_after_compaction(self, tmp_path):
        """The newest checkpoint goes bad *after* it was written,
        verified and compacted against.  The fallback snapshot needs
        the journal from its own offset on, so compaction must have
        stopped at the oldest retained checkpoint, not the newest."""
        engine = build(tmp_path, every=1000)
        in_flight = [engine.start_process("Manual", starter="ada")]
        engine.checkpoint()
        in_flight.append(engine.start_process("Manual", starter="ada"))
        in_flight.append(engine.start_process("Manual", starter="ada"))
        newest = engine.checkpoint()
        in_flight.append(engine.start_process("Manual", starter="ada"))
        engine.crash()
        with open(newest.path, "w", encoding="utf-8") as handle:
            handle.write('{"torn":')

        rebuilt = build(tmp_path, every=1000)
        rebuilt.recover()
        assert rebuilt.store.last_recovery["skipped_checkpoints"] == 1
        for iid in in_flight:
            assert rebuilt.instance_state(iid) == "running"
        for item in rebuilt.worklist("ada"):
            rebuilt.claim(item.item_id, "ada")
            rebuilt.start_item(item.item_id)
        for iid in in_flight:
            assert rebuilt.instance_state(iid) == "finished"

    def test_crash_during_compaction_preserves_journal(self, tmp_path):
        """An aborted compaction (pre-manifest-commit crash) must leave
        the full pre-compaction journal readable."""
        injector = FaultInjector([FaultRule("compact", schedule={1})], seed=1)
        engine = build(tmp_path, every=2, injector=injector)
        with pytest.raises(JournalError):
            engine.start_process("Flow")
            engine.run()  # checkpoint OK, its compaction dies
        assert engine.crashed

        rebuilt = build(tmp_path, every=2)
        rebuilt.recover()
        # the checkpoint itself was durable before the compaction died
        assert rebuilt.store.last_recovery["checkpoint"] is not None
        assert rebuilt.instance_state("pi-0001") == "running"
        rebuilt.run()
        assert rebuilt.instance_state("pi-0001") == "finished"


class TestArchiveIntegration:
    def test_archive_is_fsynced_before_the_snapshot_lands(
        self, tmp_path, disk_events
    ):
        """A snapshot omits archived instances and compaction drops
        their journal records, so under ``batch``/``never`` (where an
        archive append only reaches the OS) the archive must be fsynced
        before the checkpoint file is renamed into place."""
        engine = build(tmp_path, every=1000, sync="batch")
        engine.start_process("Flow")
        engine.run()  # finished: archived, evicted, not yet fsynced
        assert engine.store.archive.roots() == ["pi-0001"]
        archive_fd = engine.store.archive._file.fileno()
        del disk_events[:]
        checkpoint = engine.checkpoint()
        landed = disk_events.index(
            ("replace", os.path.basename(checkpoint.path))
        )
        assert ("fsync", archive_fd) in disk_events[:landed]

    def test_finished_roots_leave_live_memory(self, tmp_path):
        engine = build(tmp_path)
        iid = engine.start_process("Flow")
        engine.run()
        with pytest.raises(NavigationError):
            engine.navigator.instance(iid)
        assert engine.audit.count(iid) == 0  # pruned with the archive
        # ...but every engine query still answers from the archive
        assert engine.instance_state(iid) == "finished"
        assert engine.output(iid)["_RC"] == 0
        assert engine.execution_order(iid) == ["A", "B", "C"]
        result = engine.result(iid)
        assert result.state == "finished"
        assert result.execution_order == ["A", "B", "C"]
        view = engine.monitor(iid)
        assert view["archived"] is True
        assert view["state"] == "finished"

    def test_archive_queries_back_monitoring(self, tmp_path):
        engine = build(tmp_path)
        for __ in range(3):
            engine.start_process("Flow")
            engine.run()
        archive = engine.store.archive
        assert len(archive) == 3
        assert archive.outcomes("Flow") == {0: 3}
        assert len(archive.by_definition("Flow")) == 3
        status = engine.store_status()
        assert status["archived_roots"] == 3
        assert status["archived_instances"] == 3

    def test_running_instances_stay_live(self, tmp_path):
        engine = build(tmp_path)
        iid = engine.start_process("Manual", starter="ada")
        engine.run()
        assert engine.instance_state(iid) == "running"
        assert iid not in engine.store.archive.ids()


class TestEngineStoreApi:
    def test_store_object_is_single_use(self, tmp_path):
        store = DurableStore(tmp_path / "s")
        register(Engine(store=store))
        with pytest.raises(WorkflowError):
            Engine(store=store)

    def test_manual_checkpoint_requires_store(self):
        engine = Engine()
        with pytest.raises(WorkflowError):
            engine.checkpoint()
        assert engine.store_status() == {"enabled": False}

    def test_checkpoint_every_validation(self, tmp_path):
        with pytest.raises(WorkflowError):
            DurableStore(tmp_path, checkpoint_every_records=0)
        store = DurableStore(tmp_path)
        store.checkpoint_every(5, interval=10.0)
        assert store._every_records == 5

    def test_interval_policy_checkpoints_on_clock(self, tmp_path):
        store = DurableStore(tmp_path, checkpoint_interval=10.0)
        engine = register(Engine(organization=make_org(), store=store))
        engine.start_process("Flow")
        engine.run()
        assert engine.store_status()["checkpoints"] == 0
        engine.advance_clock(11.0)
        engine.start_process("Flow")
        engine.run()
        assert engine.store_status()["checkpoints"] == 1

    def test_store_metrics_emitted(self, tmp_path):
        store = DurableStore(tmp_path, checkpoint_every_records=2)
        engine = register(
            Engine(organization=make_org(), store=store, observability=True)
        )
        engine.start_process("Flow")
        engine.run()
        names = {
            family["name"]: family
            for family in engine.obs.metrics.collect()
        }
        assert names["wfms_store_checkpoints_total"]["samples"][0]["value"] >= 1
        assert names["wfms_store_segments_live"]["samples"][0]["value"] >= 1
        assert names["wfms_store_archive_size"]["samples"][0]["value"] == 1
        assert any(
            span["name"] == "store.checkpoint"
            for span in engine.obs.tracer.export()
        )

    def test_closed_engine_refuses_work_it_cannot_persist(self, tmp_path):
        """Work accepted after ``close()`` would live only in memory and
        vanish on recovery; the closed journal refuses it instead."""
        engine = register(
            Engine(organization=make_org(), store=DurableStore(tmp_path))
        )
        before = engine.start_process("Flow")
        engine.run()
        engine.close()
        records = len(engine.journal)
        with pytest.raises(JournalError):
            engine.start_process("Flow")
        assert len(engine.journal) == records

        recovered = register(
            Engine(organization=make_org(), store=DurableStore(tmp_path))
        )
        recovered.recover()
        rows = recovered.process_list(include_archived=True)
        assert [row["instance"] for row in rows] == [before]


def fig2_saga_engine(store, abort_at):
    """A three-step Figure 2 saga with step ``abort_at`` (or none)
    aborting, on a store-backed or volatile engine."""
    spec = SagaSpec("trip", [SagaStep(n) for n in ("t1", "t2", "t3")])
    db = SimDatabase()
    actions, compensations = {}, {}
    for step in spec.steps:
        actions[step.name] = Subtransaction(
            step.name, db, write_value(step.name, 1)
        )
        if step.name == abort_at:
            actions[step.name].policy = AbortScript([1])
        compensations[step.name] = Subtransaction(
            "c" + step.name, db, write_value(step.name, 0)
        )
    translation = translate_saga(spec)
    engine = Engine(store=store)
    register_programs(engine, translation, actions, compensations)
    engine.register_definition(translation.process)
    return engine, translation.process_name


def dead_path_engine(store):
    """A -> Ok on RC = 0, A -> Fallback on RC = 1: Fallback dies."""
    engine = Engine(store=store)
    engine.register_program("ok", lambda ctx: 0)
    d = ProcessDefinition("Branch")
    for name in ("A", "Ok", "Fallback"):
        d.add_activity(Activity(name, program="ok"))
    d.connect("A", "Ok", "RC = 0")
    d.connect("A", "Fallback", "RC = 1")
    engine.register_definition(d)
    return engine, "Branch"


#: case -> builder of (engine, process name) over a store or None.
PARITY_CASES = {
    "fig2-commit": lambda store: fig2_saga_engine(store, None),
    "fig2-abort-t1": lambda store: fig2_saga_engine(store, "t1"),
    "fig2-abort-t2": lambda store: fig2_saga_engine(store, "t2"),
    "fig2-abort-t3": lambda store: fig2_saga_engine(store, "t3"),
    "dead-path": dead_path_engine,
}


class TestArchivedActivityStates:
    """``activity_states`` of a finished (archived) instance answers
    from the archive exactly what a volatile engine answers live."""

    @pytest.mark.parametrize("case", list(PARITY_CASES))
    def test_matches_a_volatile_engine(self, tmp_path, case):
        volatile, name = PARITY_CASES[case](None)
        durable, __ = PARITY_CASES[case](DurableStore(tmp_path))
        live = volatile.run_process(name).instance_id
        archived = durable.run_process(name).instance_id
        assert live == archived
        assert archived in durable.store.archive.ids()

        # the root plus every block child (the FIG2 blocks), all archived
        ids = [row["instance"] for row in volatile.process_list()]
        assert ids == [
            row["instance"]
            for row in durable.process_list(include_archived=True)
        ]
        states = {i: volatile.activity_states(i) for i in ids}
        assert {i: durable.activity_states(i) for i in ids} == states
        assert "dead" in {
            state for by_name in states.values() for state in by_name.values()
        }
