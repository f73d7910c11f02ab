"""Compiled navigation plans: structure, caching and invalidation."""

import pytest

from repro.errors import DefinitionError
from repro.wfms.engine import Engine
from repro.wfms.model import Activity, ProcessDefinition
from repro.wfms.plan import compile_plan
from repro.wfms.registry import DefinitionRegistry
from repro.wfms.datatypes import DataType, VariableDecl


def diamond():
    d = ProcessDefinition("Diamond")
    d.add_activity(Activity("A", program="p"))
    d.add_activity(Activity("B", program="p"))
    d.add_activity(Activity("C", program="p", exit_condition="RC = 0"))
    d.add_activity(
        Activity(
            "J",
            program="p",
            input_spec=[VariableDecl("Rc", DataType.LONG)],
        )
    )
    d.connect("A", "B", condition="RC = 0")
    d.connect("A", "C")
    d.connect("B", "J")
    d.connect("C", "J")
    d.map_data("A", "J", [("_RC", "Rc")])
    return d


class TestCompilePlan:
    def test_adjacency_matches_definition(self):
        d = diamond()
        plan = compile_plan(d)
        assert plan.starting == ("A",)
        assert [c.target for c in plan.outgoing["A"]] == ["B", "C"]
        assert [c.target for c in plan.outgoing["J"]] == []
        assert plan.incoming_keys["J"] == ("B->J", "C->J")
        assert plan.incoming_keys["A"] == ()

    def test_trivial_conditions_compile_to_none(self):
        d = diamond()
        plan = compile_plan(d)
        by_target = {c.target: c for c in plan.outgoing["A"]}
        assert by_target["C"].evaluate is None          # default TRUE
        assert by_target["B"].evaluate is not None      # RC = 0
        assert by_target["B"].evaluate({"_RC": 0}) is True
        assert by_target["B"].evaluate({"_RC": 1}) is False
        assert plan.exit_conditions["A"] is None
        assert plan.exit_conditions["C"] is not None

    def test_data_connectors_indexed_by_target(self):
        d = diamond()
        plan = compile_plan(d)
        assert [c.source for c in plan.data_into["J"]] == ["A"]
        assert "A" not in plan.data_into
        assert plan.output_mappings == {}

    def test_container_prototypes_are_fresh_per_call(self):
        d = ProcessDefinition(
            "P", input_spec=[VariableDecl("N", DataType.LONG)]
        )
        d.add_activity(
            Activity(
                "A",
                program="p",
                output_spec=[VariableDecl("Out", DataType.STRING)],
            )
        )
        plan = compile_plan(d)
        first = plan.output_container("A")
        first.set("Out", "changed")
        second = plan.output_container("A")
        assert second.get("Out") == ""
        assert second.return_code == 0
        process_input = plan.process_input_container()
        assert process_input.get("N") == 0


class TestPlanCache:
    def test_plan_is_cached_per_definition_object(self):
        registry = DefinitionRegistry()
        d = diamond()
        registry.register(d)
        assert registry.plan_for(d) is registry.plan_for(d)

    def test_definition_registration_invalidates_plans(self):
        registry = DefinitionRegistry()
        d = diamond()
        registry.register(d)
        before = registry.plan_for(d)
        other = ProcessDefinition("Other")
        other.add_activity(Activity("X", program="p"))
        registry.register(other)
        assert registry.plan_for(d) is not before

    def test_program_registration_invalidates_plans(self):
        engine = Engine()
        engine.register_program("p", lambda ctx: 0)
        d = diamond()
        engine.register_definition(d)
        before = engine._definitions.plan_for(d)
        engine.register_program("q", lambda ctx: 0)
        assert engine._definitions.plan_for(d) is not before

    def test_identical_duplicate_is_a_cache_preserving_noop(self):
        # Re-registering a byte-identical definition (same name/version,
        # e.g. a decorated flow on module re-import) is a no-op: the
        # first object stays canonical and cached plans stay warm.
        registry = DefinitionRegistry()
        first = diamond()
        registry.register(first)
        plan = registry.plan_for(first)
        registry.register(diamond())
        assert registry.get("Diamond") is first
        assert registry.plan_for(first) is plan

    def test_changed_duplicate_name_version_still_rejected(self):
        registry = DefinitionRegistry()
        registry.register(diamond())
        changed = diamond()
        changed.connect("B", "C", condition="RC = 0")
        with pytest.raises(DefinitionError):
            registry.register(changed)


class TestStalePlansNeverUsed:
    """A new version of a definition must navigate on its own plan."""

    def build_engine(self):
        engine = Engine()
        engine.register_program("p", lambda ctx: 0)
        v1 = ProcessDefinition("Proc", version="1")
        v1.add_activity(Activity("A", program="p"))
        v1.add_activity(Activity("B", program="p"))
        v1.connect("A", "B", condition="RC = 0")
        engine.register_definition(v1)
        return engine

    def test_new_version_navigates_on_its_own_plan(self):
        engine = self.build_engine()
        first = engine.run_process("Proc")
        assert engine.activity_states(first.instance_id)["B"] == "terminated"

        # Same name, new version: B is now dead-path eliminated.
        v2 = ProcessDefinition("Proc", version="2")
        v2.add_activity(Activity("A", program="p"))
        v2.add_activity(Activity("B", program="p"))
        v2.connect("A", "B", condition="RC <> 0")
        engine.register_definition(v2)

        second = engine.run_process("Proc")  # latest version is 2
        assert engine.activity_states(second.instance_id)["B"] == "dead"
        # Pinning version 1 still runs the old template's plan.
        iid = engine.start_process("Proc", version="1")
        engine.run()
        assert engine.activity_states(iid)["B"] == "terminated"

    def test_block_children_get_plans(self):
        from repro.wfms.model import ActivityKind

        engine = Engine()
        engine.register_program("p", lambda ctx: 0)
        inner = ProcessDefinition("Inner")
        inner.add_activity(Activity("I", program="p"))
        outer = ProcessDefinition("Outer")
        outer.add_activity(
            Activity("Blk", kind=ActivityKind.BLOCK, block=inner)
        )
        engine.register_definition(outer)
        result = engine.run_process("Outer")
        assert result.finished
        child = engine.navigator.instance("%s/Blk@1" % result.instance_id)
        assert child.plan is not None
        assert child.plan.definition is inner
