"""Crash and recovery semantics of cross-activity transaction scopes.

A scope open at crash time is *torn*: recovery must roll its
transaction back (no partial scope writes survive) and the replayed
workflow must deterministically route through its rollback path.
"""

import pytest

from repro.store import DurableStore
from repro.tx import ScopeManager, SimDatabase
from repro.tx.scope import IsolationLevel
from repro.wfms import Activity, DataType, Engine, ProcessDefinition, VariableDecl
from repro.core.scoped import (
    SCOPE_SERVICE,
    install_scope_service,
    make_begin_program,
    register_scoped_saga_programs,
    translate_scoped_saga,
    workflow_scoped_outcome,
)
from repro.core.sagas import SagaSpec, SagaStep


SPEC = SagaSpec("trip", [SagaStep("t1"), SagaStep("t2"), SagaStep("t3")])


def scope_write(key, value):
    def body(scope):
        scope.write(key, value)

    return body


def build_engine(store_dir, db, manager):
    """Fresh engine over the surviving database + scope manager."""
    translation = translate_scoped_saga(SPEC)
    engine = Engine(store=DurableStore(store_dir))
    engine.register_definition(translation.process)
    bodies = {s.name: scope_write(s.name, 1) for s in SPEC.steps}
    register_scoped_saga_programs(engine, translation, bodies, manager)
    return engine, translation


@pytest.fixture
def store_dir(tmp_path):
    return str(tmp_path / "store")


class TestMidScopeCrash:
    def test_crash_mid_scope_leaves_no_partial_writes(self, store_dir):
        db = SimDatabase()
        manager = ScopeManager(db)
        engine, translation = build_engine(store_dir, db, manager)
        iid = engine.start_process(translation.process.name)
        # Execute Begin and t1 only: the scope is open, t1's write
        # uncommitted.
        assert engine.navigator.step()
        assert engine.navigator.step()
        assert db.get("t1") == 1  # dirty, inside the open scope
        engine.crash()

        engine2, translation2 = build_engine(store_dir, db, manager)
        engine2.recover()
        # The torn scope was rolled back before replay resumed.
        assert db.get("t1") is None
        assert db.active_transactions() == []
        engine2.run()
        outcome = workflow_scoped_outcome(engine2, translation2, iid)
        assert outcome.rolled_back and not outcome.committed
        assert db.snapshot() == {}

    def test_crash_after_commit_keeps_writes(self, store_dir):
        db = SimDatabase()
        manager = ScopeManager(db)
        engine, translation = build_engine(store_dir, db, manager)
        iid = engine.start_process(translation.process.name)
        engine.run()
        assert db.snapshot() == {"t1": 1, "t2": 1, "t3": 1}
        engine.crash()

        engine2, translation2 = build_engine(store_dir, db, manager)
        engine2.recover()
        engine2.run()
        outcome = workflow_scoped_outcome(engine2, translation2, iid)
        assert outcome.committed
        assert db.snapshot() == {"t1": 1, "t2": 1, "t3": 1}

    def test_double_crash_converges(self, store_dir):
        db = SimDatabase()
        manager = ScopeManager(db)
        engine, translation = build_engine(store_dir, db, manager)
        iid = engine.start_process(translation.process.name)
        assert engine.navigator.step()
        engine.crash()
        engine2, __ = build_engine(store_dir, db, manager)
        engine2.recover()
        assert engine2.navigator.step()
        engine2.crash()
        engine3, translation3 = build_engine(store_dir, db, manager)
        engine3.recover()
        engine3.run()
        outcome = workflow_scoped_outcome(engine3, translation3, iid)
        # Whatever path it took, nothing is torn and the outcome is
        # one of the two legal ones.
        assert outcome.committed != outcome.rolled_back
        assert db.active_transactions() == []


class TestRootFinishSafetyNet:
    def test_leaked_scope_rolled_back_at_root_finish(self):
        """A process that begins a scope and never ends it must not
        leak the transaction past the root's termination."""
        db = SimDatabase()
        manager = ScopeManager(db)
        engine = Engine()
        install_scope_service(engine, manager)
        engine.register_program(
            "leaky_begin",
            make_begin_program(IsolationLevel.SERIALIZABLE, None),
            replace=True,
        )

        def leaky_write(ctx):
            scope = manager.get(ctx.input.get("Scope"))
            scope.write("k", 1)
            return 0

        engine.register_program("leaky_write", leaky_write, replace=True)
        defn = ProcessDefinition("Leaky")
        defn.add_activity(
            Activity(
                "Begin",
                program="leaky_begin",
                output_spec=[VariableDecl("Scope", DataType.STRING)],
            )
        )
        defn.add_activity(
            Activity(
                "Work",
                program="leaky_write",
                input_spec=[VariableDecl("Scope", DataType.STRING)],
            )
        )
        defn.connect("Begin", "Work")
        defn.map_data("Begin", "Work", [("Scope", "Scope")])
        engine.register_definition(defn)
        result = engine.run_process("Leaky")
        assert result.finished
        # The safety net rolled the abandoned scope back.
        assert db.get("k") is None
        assert db.active_transactions() == []
        assert list(manager.open_scopes()) == []


class TestServiceWiring:
    def test_recover_without_scope_service_is_fine(self, store_dir):
        engine = Engine(store=DurableStore(store_dir))
        engine.register_program("p", lambda ctx: 0)
        defn = ProcessDefinition("P")
        defn.add_activity(Activity("A", program="p"))
        engine.register_definition(defn)
        engine.start_process("P")
        engine.crash()
        engine2 = Engine(store=DurableStore(store_dir))
        engine2.register_program("p", lambda ctx: 0)
        engine2.register_definition(defn)
        engine2.recover()  # no tx_scopes service: no-op, no error
        engine2.run()

    def test_install_registers_service_and_programs(self):
        db = SimDatabase()
        manager = ScopeManager(db)
        engine = Engine()
        install_scope_service(engine, manager)
        assert engine.services[SCOPE_SERVICE] is manager
