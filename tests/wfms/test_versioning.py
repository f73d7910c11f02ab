"""Tests for versioned process definitions (§3.2: a process has "a
name, version number, ...")."""

import pytest

from repro.errors import DefinitionError
from repro.store import DurableStore
from repro.wfms import Activity, Engine, ProcessDefinition
from repro.wfms.registry import DefinitionRegistry


def make(version, activity="A"):
    d = ProcessDefinition("P", version=version)
    d.add_activity(Activity(activity, program="ok"))
    return d


class TestRegistry:
    def test_latest_version_wins_by_default(self):
        registry = DefinitionRegistry()
        registry.register(make("1"))
        registry.register(make("2"))
        registry.register(make("10"))  # numeric: 10 > 2
        assert registry.get("P").version == "10"

    def test_explicit_version(self):
        registry = DefinitionRegistry()
        registry.register(make("1"))
        registry.register(make("2"))
        assert registry.get("P", "1").version == "1"

    def test_unknown_version_rejected(self):
        registry = DefinitionRegistry()
        registry.register(make("1"))
        with pytest.raises(DefinitionError, match="version"):
            registry.get("P", "9")

    def test_unknown_name_rejected(self):
        with pytest.raises(DefinitionError):
            DefinitionRegistry().get("Ghost")
        with pytest.raises(DefinitionError):
            DefinitionRegistry().versions("Ghost")

    def test_duplicate_name_version_rejected(self):
        registry = DefinitionRegistry()
        registry.register(make("1"))
        with pytest.raises(DefinitionError, match="already"):
            registry.register(make("1", activity="B"))

    def test_identical_name_version_is_idempotent(self):
        registry = DefinitionRegistry()
        first = make("1")
        registry.register(first)
        registry.register(make("1"))  # structurally identical: no-op
        assert registry.get("P", "1") is first

    def test_versions_sorted_numerically(self):
        registry = DefinitionRegistry()
        for v in ("10", "2", "1"):
            registry.register(make(v))
        assert registry.versions("P") == ["1", "2", "10"]

    def test_dotted_versions(self):
        registry = DefinitionRegistry()
        for v in ("1.2", "1.10", "1.9"):
            registry.register(make(v))
        assert registry.versions("P") == ["1.2", "1.9", "1.10"]

    def test_names_and_contains(self):
        registry = DefinitionRegistry()
        registry.register(make("1"))
        assert registry.names() == ["P"]
        assert "P" in registry
        assert "Q" not in registry


class TestEngineVersioning:
    def build_engine(self):
        engine = Engine()
        engine.register_program("ok", lambda ctx: 0)
        engine.register_program("ok2", lambda ctx: 0)
        v1 = ProcessDefinition("P", version="1")
        v1.add_activity(Activity("Old", program="ok"))
        v2 = ProcessDefinition("P", version="2")
        v2.add_activity(Activity("New", program="ok2"))
        engine.register_definition(v1)
        engine.register_definition(v2)
        return engine

    def test_new_instances_use_latest(self):
        engine = self.build_engine()
        result = engine.run_process("P")
        assert result.execution_order == ["New"]

    def test_pinned_version(self):
        engine = self.build_engine()
        iid = engine.start_process("P", version="1")
        engine.run()
        assert engine.audit.execution_order(iid) == ["Old"]

    def test_version_listing(self):
        engine = self.build_engine()
        assert engine.definition_versions("P") == ["1", "2"]
        assert engine.definition("P").version == "2"
        assert engine.definition("P", "1").version == "1"

    def test_running_instance_unaffected_by_new_version(self):
        engine = Engine()
        engine.register_program("ok", lambda ctx: 0)
        v1 = ProcessDefinition("P", version="1")
        v1.add_activity(Activity("Step1", program="ok"))
        v1.add_activity(Activity("Step2", program="ok"))
        v1.connect("Step1", "Step2")
        engine.register_definition(v1)
        iid = engine.start_process("P")
        engine.step()  # Step1 done, Step2 pending
        v2 = ProcessDefinition("P", version="2")
        v2.add_activity(Activity("Other", program="ok"))
        engine.register_definition(v2)
        engine.run()
        assert engine.audit.execution_order(iid) == ["Step1", "Step2"]

    def test_recovery_replays_recorded_version(self, tmp_path):
        journal = str(tmp_path / "j")
        engine = Engine(store=DurableStore(journal))
        engine.register_program("ok", lambda ctx: 0)
        v1 = ProcessDefinition("P", version="1")
        v1.add_activity(Activity("Old", program="ok"))
        v1.add_activity(Activity("Tail", program="ok"))
        v1.connect("Old", "Tail")
        engine.register_definition(v1)
        iid = engine.start_process("P", version="1")
        engine.step()
        engine.crash()

        # Recover into an engine that ALSO has a newer version: the
        # instance must continue on version 1.
        engine2 = Engine(store=DurableStore(journal))
        engine2.register_program("ok", lambda ctx: 0)
        v1b = ProcessDefinition("P", version="1")
        v1b.add_activity(Activity("Old", program="ok"))
        v1b.add_activity(Activity("Tail", program="ok"))
        v1b.connect("Old", "Tail")
        v2 = ProcessDefinition("P", version="2")
        v2.add_activity(Activity("Different", program="ok"))
        engine2.register_definition(v1b)
        engine2.register_definition(v2)
        engine2.recover()
        engine2.run()
        assert engine2.instance_state(iid) == "finished"
        assert engine2.execution_order(iid) == ["Old", "Tail"]
