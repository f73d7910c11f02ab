"""Type checks on data entering a container: live start inputs and
forced outputs are coerced (or rejected), and data-connector pairs or
block/subprocess boundary pairs whose declared types can never agree
are rejected when the definition is registered (subprocesses: when
``verify_executable`` resolves them), not when the step runs."""

import pytest

from repro.errors import ContainerError, DefinitionError
from repro.store import DurableStore
from repro.wfms import Activity, DataType, Engine, ProcessDefinition, VariableDecl
from repro.wfms.containers import Container
from repro.wfms.datatypes import StructureType
from repro.wfms.model import PROCESS_INPUT, PROCESS_OUTPUT, ActivityKind

def typed(values):
    """``values`` with each scalar tagged by its Python type."""
    if isinstance(values, dict):
        return {key: typed(value) for key, value in values.items()}
    return (type(values).__name__, values)


def one_step(name, input_spec=()):
    d = ProcessDefinition(name, input_spec=list(input_spec))
    d.add_activity(Activity("A", program="p"))
    return d


def shapes_process():
    """An activity whose output holds a structure, an array and a
    scalar, mapped into the process output's LONG ``Final``."""
    d = ProcessDefinition(
        "Shapes", output_spec=[VariableDecl("Final", DataType.LONG)]
    )
    d.types.register(
        StructureType(
            "Point",
            [VariableDecl("X", DataType.LONG), VariableDecl("Y", DataType.FLOAT)],
        )
    )
    d.add_activity(
        Activity(
            "Make",
            program="p",
            output_spec=[
                VariableDecl("Count", DataType.LONG),
                VariableDecl("Where", "Point"),
                VariableDecl("Marks", DataType.LONG, array_size=3),
            ],
        )
    )
    d.map_data("Make", PROCESS_OUTPUT, [("Where.X", "Final"), ("Marks.2", "Final")])
    return d


class TestStartInputs:
    def test_ill_typed_start_input_is_rejected(self):
        engine = Engine()
        engine.register_program("p", lambda ctx: 0)
        engine.register_definition(
            one_step("P", [VariableDecl("X", DataType.LONG)])
        )
        with pytest.raises(ContainerError):
            engine.start_process("P", {"X": "seven"})
        assert engine.navigator.instances() == []
        # The rejected start consumed no instance id.
        assert engine.start_process("P", {"X": 7}) == "pi-0001"

    def test_start_input_is_coerced(self):
        engine = Engine()
        engine.register_program("p", lambda ctx: 0)
        engine.register_definition(
            one_step("P", [VariableDecl("F", DataType.FLOAT)])
        )
        iid = engine.start_process("P", {"F": 3, "Unknown": "ignored"})
        container = engine.navigator.instance(iid).input
        assert typed(container.to_dict()) == typed({"F": 3.0})

    def test_forced_output_is_type_checked(self):
        engine = forced_engine()
        iid = engine.start_process("P")
        with pytest.raises(ContainerError):
            engine.force_finish(iid, "A", output_values={"X": "one"})
        ai = engine.navigator.instance(iid).activity("A")
        assert (ai.state.value, ai.attempt, ai.forced, ai.output) == (
            "ready",
            0,
            False,
            None,
        )

    def test_rejected_force_then_corrected_force_recovers(self, tmp_path):
        """The rejected call leaves no trace: the corrected completion
        is journaled under the attempt replay looks for."""
        expected = forced_engine()
        iid = expected.start_process("P")
        expected.force_finish(iid, "A", output_values={"X": 1})
        expected.run()
        engine = forced_engine(DurableStore(str(tmp_path)))
        assert engine.start_process("P") == iid
        # The navigator's call does not run B (Engine.force_finish
        # would), so the instance is still live at the crash.
        navigator = engine.navigator
        with pytest.raises(ContainerError):
            navigator.force_finish(iid, "A", output_values={"X": "one"})
        navigator.force_finish(iid, "A", output_values={"X": 1})
        engine.crash()
        recovered = forced_engine(DurableStore(str(tmp_path)))
        recovered.recover()
        a = recovered.navigator.instance(iid).activity("A")
        assert (a.state.value, a.attempt, a.forced) == ("terminated", 1, True)
        recovered.run()
        # A's forced completion was replayed, not re-run.
        assert recovered.program_calls == expected.program_calls == ["q"]
        assert recovered.activity_states(iid) == expected.activity_states(iid)
        recovered.close()

    def test_replay_checks_an_unchecked_start_input(
        self, tmp_path, monkeypatch
    ):
        """A store whose start input was stored unchecked fails replay
        at the start, before flat copies could spread the value."""
        engine = forced_engine(DurableStore(str(tmp_path)), LONG_X)
        with monkeypatch.context() as patch:
            patch.setattr(Container, "assign", Container.load_dict)
            engine.start_process("P", {"X": "seven"})
        engine.crash()
        recovered = forced_engine(DurableStore(str(tmp_path)), LONG_X)
        with pytest.raises(ContainerError):
            recovered.recover()


LONG_X = [VariableDecl("X", DataType.LONG)]


def forced_engine(store=None, input_spec=()):
    """``A -> B``: ``A``'s program sets ``X = 1``, its exit condition;
    ``program_calls`` names each program invoked."""
    engine = Engine(store=store)
    engine.program_calls = []

    def p(ctx):
        engine.program_calls.append("p")
        ctx.set_output("X", 1)

    engine.register_program("p", p)
    engine.register_program("q", lambda ctx: engine.program_calls.append("q"))
    d = ProcessDefinition("P", input_spec=list(input_spec))
    d.add_activity(
        Activity(
            "A",
            program="p",
            output_spec=[VariableDecl("X", DataType.LONG)],
            exit_condition="X = 1",
        )
    )
    d.add_activity(Activity("B", program="q"))
    d.connect("A", "B")
    engine.register_definition(d)
    return engine


def block_process(parent_type, child_type):
    block = one_step("Child", [VariableDecl("X", child_type)])
    d = ProcessDefinition(
        "Parent", input_spec=[VariableDecl("X", DataType.LONG)]
    )
    d.add_activity(
        Activity(
            "B",
            kind=ActivityKind.BLOCK,
            block=block,
            input_spec=[VariableDecl("X", parent_type)],
        )
    )
    d.map_data(PROCESS_INPUT, "B", [("X", "X")])
    return d


class TestRegistrationChecks:
    @pytest.mark.parametrize(
        "source, target",
        [
            (DataType.STRING, DataType.LONG),
            (DataType.LONG, DataType.STRING),
            (DataType.FLOAT, DataType.LONG),
            (DataType.BINARY, DataType.STRING),
        ],
    )
    def test_connector_pair_that_never_agrees(self, source, target):
        d = ProcessDefinition("P", input_spec=[VariableDecl("X", source)])
        d.add_activity(
            Activity("A", program="p", input_spec=[VariableDecl("Y", target)])
        )
        d.map_data(PROCESS_INPUT, "A", [("X", "Y")])
        with pytest.raises(DefinitionError, match="can never be assigned"):
            Engine().register_definition(d)

    @pytest.mark.parametrize(
        "from_path, message",
        [
            ("Where.Z", "has no member"),
            ("Marks.3", "not an index"),
            ("Count.X", "descends into a scalar"),
        ],
    )
    def test_connector_path_no_container_holds(self, from_path, message):
        d = shapes_process()
        d.map_data("Make", PROCESS_OUTPUT, [(from_path, "Final")])
        with pytest.raises(DefinitionError, match=message):
            Engine().register_definition(d)

    def test_structure_into_scalar_never_agrees(self):
        Engine().register_definition(shapes_process())  # the valid paths
        d = shapes_process()
        d.map_data("Make", PROCESS_OUTPUT, [("Where", "Final")])
        with pytest.raises(DefinitionError, match="Point"):
            Engine().register_definition(d)

    def test_block_boundary_that_never_agrees(self):
        with pytest.raises(DefinitionError, match="child Child input"):
            Engine().register_definition(
                block_process(DataType.LONG, DataType.STRING)
            )

    def test_block_boundary_widens(self):
        engine = Engine()
        engine.register_program("p", lambda ctx: 0)
        engine.register_definition(block_process(DataType.LONG, DataType.FLOAT))
        iid = engine.run_process("Parent", {"X": 7}).instance_id
        child = engine.navigator.instance("%s/B@1" % iid)
        assert typed(child.input.to_dict()) == typed({"X": 7.0})

    def test_subprocess_boundary_checked_with_verify_executable(self):
        engine = Engine()
        engine.register_program("p", lambda ctx: 0)
        engine.register_definition(
            one_step("Child", [VariableDecl("X", DataType.STRING)])
        )
        d = ProcessDefinition(
            "Parent", input_spec=[VariableDecl("X", DataType.LONG)]
        )
        d.add_activity(
            Activity(
                "S",
                kind=ActivityKind.PROCESS,
                subprocess="Child",
                input_spec=[VariableDecl("X", DataType.LONG)],
            )
        )
        d.map_data(PROCESS_INPUT, "S", [("X", "X")])
        engine.register_definition(d)
        with pytest.raises(DefinitionError, match="child Child input"):
            engine.start_process("Parent", {"X": 7})

    def test_new_subprocess_version_never_reuses_a_stale_boundary(self):
        engine = Engine()
        engine.register_program("p", lambda ctx: 0)
        engine.register_definition(
            one_step("Child", [VariableDecl("X", DataType.FLOAT)])
        )
        d = ProcessDefinition(
            "Parent", input_spec=[VariableDecl("X", DataType.LONG)]
        )
        d.add_activity(
            Activity(
                "S",
                kind=ActivityKind.PROCESS,
                subprocess="Child",
                input_spec=[VariableDecl("X", DataType.LONG)],
            )
        )
        d.map_data(PROCESS_INPUT, "S", [("X", "X")])
        engine.register_definition(d)
        first = engine.run_process("Parent", {"X": 7}).instance_id
        # Started on the same plan, run after version 2 is registered.
        second = engine.start_process("Parent", {"X": 7})
        v2 = one_step("Child", [VariableDecl("X", DataType.LONG)])
        v2.version = "2"
        engine.register_definition(v2)
        engine.run()
        values = {
            iid: engine.navigator.instance("%s/S@1" % iid).input.to_dict()
            for iid in (first, second)
        }
        assert typed(values) == typed({first: {"X": 7.0}, second: {"X": 7}})
