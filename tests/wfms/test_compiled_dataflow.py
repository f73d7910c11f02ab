"""Compiled data flow: data connectors and block/subprocess boundaries
run as plan data (:class:`repro.wfms.plan.DataFlow`).

* differential: every compiled flow of every shipped spec, FIG2-4
  definition and workload process moves exactly what the reference
  ``set(to, get(from))`` moves, value types included;
* end to end: a process exercising every kind of pair (LONG -> FLOAT,
  structure member, array element, whole structure, loop-carried self
  connector, block boundary with a structure, dotted and flat
  conditions) runs identically with the compiled flows and with a
  reference ``receive``, and after a crash at every step;
* the container invariant — every stored flat value already has its
  declared type — holds on every live container, recovered ones too.

The type checks that make the invariant hold are in
``test_dataflow_typecheck.py``.
"""

import glob
import os
import random

import pytest

from repro.core.fmtm import translate
from repro.core.sagas import SagaSpec, SagaStep
from repro.core.speclang import parse_spec
from repro.store import DurableStore
from repro.wfms import Activity, DataType, Engine, ProcessDefinition, VariableDecl
from repro.wfms.containers import Container
from repro.wfms.datatypes import StructureType
from repro.wfms.model import PROCESS_INPUT, PROCESS_OUTPUT, ActivityKind
from repro.wfms.plan import boundary_flows, compile_plan, connector_flow
from repro.workloads.banking import fig3_spec
from repro.workloads.generator import random_flexible_spec
from repro.workloads.orders import build_order_process

SPEC_DIR = os.path.join(
    os.path.dirname(__file__), os.pardir, os.pardir, "examples", "specs"
)
PYTHON_TYPE = {
    DataType.LONG: int,
    DataType.FLOAT: float,
    DataType.STRING: str,
    DataType.BINARY: bytes,
}


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def reference_receive(target, source, flow):
    """What the navigator did before flows were compiled: every pair
    through ``set(to, source.get(from))``."""
    pairs = flow.copies + tuple(c[:2] for c in flow.converts) + flow.paths
    for from_path, to_path in pairs:
        target.set(to_path, source.get(from_path))


def sample(decl, types, rng):
    """A random value of ``decl``'s declared type."""
    if decl.is_array:
        element = VariableDecl(decl.name, decl.type)
        return [sample(element, types, rng) for __ in range(decl.array_size)]
    if decl.is_structure:
        structure = types.get(str(decl.type))
        return {m.name: sample(m, types, rng) for m in structure.members}
    return {
        DataType.LONG: lambda: rng.randint(-99, 99),
        DataType.FLOAT: lambda: rng.uniform(-9.0, 9.0),
        DataType.STRING: lambda: "s%d" % rng.randint(0, 99),
        DataType.BINARY: lambda: bytes([rng.randint(0, 255)]),
    }[decl.type]()


def filled(spec, types, rng, *, output=False):
    container = Container(spec, types, output=output)
    for name in container.members():
        container.set(name, sample(container.declaration(name), types, rng))
    return container


def canon(value):
    """``value`` with every scalar tagged by its Python type and dicts
    in key order: equal iff the same values of the same types."""
    if isinstance(value, dict):
        return sorted((key, canon(item)) for key, item in value.items())
    if isinstance(value, list):
        return [canon(item) for item in value]
    return (type(value).__name__, value)


def assert_typed(container):
    """The container invariant: every flat value has its declared type."""
    for name in container.members():
        decl = container.declaration(name)
        if decl.is_array or decl.is_structure:
            continue
        value = container.get(name)
        assert type(value) is PYTHON_TYPE[decl.type], (name, value)


def assert_engine_typed(engine):
    for instance in engine.navigator.instances():
        assert_typed(instance.input)
        assert_typed(instance.output)
        for ai in instance.activities.values():
            for container in (ai.input, ai.output):
                if container is not None:
                    assert_typed(container)


def walk(definition):
    """``definition`` and every embedded block definition."""
    yield definition
    for activity in definition.activities.values():
        if activity.kind is ActivityKind.BLOCK:
            yield from walk(activity.block)


def corpus():
    """Every shipped spec, FIG2 (n <= 6, both compensation modes),
    FIG3/FIG4 and the workload processes, as definitions."""
    for path in sorted(glob.glob(os.path.join(SPEC_DIR, "*.fmtm"))):
        with open(path, encoding="utf-8") as handle:
            yield translate(parse_spec(handle.read())).process
    for n in range(1, 7):
        spec = SagaSpec("fig2_%d" % n, [SagaStep("t%d" % i) for i in range(n)])
        for compensate_completed in (False, True):
            yield translate(
                spec, compensate_completed=compensate_completed
            ).process
    yield translate(fig3_spec()).process
    for seed in range(4):
        yield translate(random_flexible_spec(branches=3, seed=seed)).process
    yield build_order_process()
    yield rich_process()


# ---------------------------------------------------------------------------
# the process exercising every kind of pair
# ---------------------------------------------------------------------------


def point_types(definition):
    definition.types.register(
        StructureType(
            "Point",
            [VariableDecl("X", DataType.LONG), VariableDecl("Y", DataType.FLOAT)],
        )
    )


def rich_block():
    block = ProcessDefinition(
        "Scale",
        input_spec=[
            VariableDecl("Where", "Point"),
            VariableDecl("K", DataType.FLOAT),  # parent sends LONG
            VariableDecl("Mark", DataType.LONG),
        ],
        output_spec=[
            VariableDecl("Sum", DataType.FLOAT),
            VariableDecl("Where", "Point"),
        ],
    )
    point_types(block)  # the block's own registry
    block.add_activity(
        Activity(
            "Inner",
            program="inner",
            input_spec=[
                VariableDecl("Where", "Point"),
                VariableDecl("K", DataType.FLOAT),
                VariableDecl("Mark", DataType.LONG),
            ],
            output_spec=[
                VariableDecl("Sum", DataType.FLOAT),
                VariableDecl("Where", "Point"),
            ],
        )
    )
    block.map_data(
        PROCESS_INPUT, "Inner", [("Where", "Where"), ("K", "K"), ("Mark", "Mark")]
    )
    block.map_data("Inner", PROCESS_OUTPUT, [("Sum", "Sum"), ("Where", "Where")])
    return block


def rich_process():
    d = ProcessDefinition(
        "Rich",
        input_spec=[VariableDecl("N", DataType.LONG)],
        output_spec=[
            VariableDecl("Sum", DataType.FLOAT),
            VariableDecl("Where", "Point"),
            VariableDecl("Final", DataType.LONG),
            VariableDecl("Tag", DataType.STRING),
            VariableDecl("Third", DataType.LONG),
        ],
    )
    point_types(d)
    d.add_activity(
        Activity(
            "Make",
            program="make",
            input_spec=[
                VariableDecl("N", DataType.LONG),
                VariableDecl("F", DataType.FLOAT),
            ],
            output_spec=[
                VariableDecl("Count", DataType.LONG),
                VariableDecl("Name", DataType.STRING),
                VariableDecl("Where", "Point"),
                VariableDecl("Marks", DataType.LONG, array_size=3),
            ],
        )
    )
    d.add_activity(
        Activity(
            "Loop",
            program="loop",
            input_spec=[VariableDecl("Count", DataType.LONG)],
            output_spec=[VariableDecl("Count", DataType.LONG)],
            exit_condition="Count >= 3",
        )
    )
    d.add_activity(
        Activity(
            "Blk",
            kind=ActivityKind.BLOCK,
            block=rich_block(),
            input_spec=[
                VariableDecl("Where", "Point"),
                VariableDecl("K", DataType.LONG),
                VariableDecl("Mark", DataType.LONG),
            ],
            output_spec=[
                VariableDecl("Sum", DataType.FLOAT),
                VariableDecl("Where", "Point"),
            ],
        )
    )
    d.connect("Make", "Loop", condition="Where.X >= 0")  # dotted: get
    d.connect("Loop", "Blk", condition="Count = 3")  # whole member
    d.map_data(PROCESS_INPUT, "Make", [("N", "N"), ("N", "F")])  # LONG->FLOAT
    d.map_data("Make", "Loop", [("Count", "Count")])
    d.map_data("Loop", "Loop", [("Count", "Count")])  # loop-carried
    d.map_data(
        "Make",
        "Blk",
        [("Where", "Where"), ("Marks.1", "Mark"), ("Where.X", "K")],
    )
    d.map_data(
        "Blk", PROCESS_OUTPUT, [("Sum", "Sum"), ("Where", "Where")]
    )
    d.map_data(
        "Make",
        PROCESS_OUTPUT,
        [("Name", "Tag"), ("Marks.2", "Third"), ("Count", "Final")],
    )
    d.map_data("Loop", PROCESS_OUTPUT, [("Count", "Final")])
    return d


def rich_engine(store=None, seen=None):
    seen = [] if seen is None else seen
    engine = Engine(store=store)

    def make(ctx):
        seen.append(("Make", canon(ctx.input.to_dict())))
        n = ctx.get_input("N")
        ctx.set_output("Count", 1)
        ctx.set_output("Name", "n%d" % n)
        ctx.set_output("Where", {"X": n, "Y": ctx.get_input("F") / 2})
        ctx.set_output("Marks", [n, n + 1, n + 2])
        return 0

    def loop(ctx):
        seen.append(("Loop", canon(ctx.input.to_dict())))
        ctx.set_output("Count", ctx.get_input("Count") + 1)
        return 0

    def inner(ctx):
        seen.append(("Inner", canon(ctx.input.to_dict())))
        where = ctx.get_input("Where")
        total = where["Y"] + ctx.get_input("K") + ctx.get_input("Mark")
        ctx.set_output("Sum", total)
        ctx.set_output("Where", {"X": where["X"] * 2, "Y": where["Y"]})
        return 0

    engine.register_program("make", make)
    engine.register_program("loop", loop)
    engine.register_program("inner", inner)
    engine.register_definition(rich_process())
    return engine, seen


RICH_OUTPUT = {
    "_RC": 0,
    "Sum": 2.0 + 4 + 5,
    "Where": {"X": 8, "Y": 2.0},
    "Final": 3,
    "Tag": "n4",
    "Third": 6,
}


# ---------------------------------------------------------------------------
# tests
# ---------------------------------------------------------------------------


class TestDifferential:
    def test_every_flow_matches_set_get(self):
        rng = random.Random(11)
        flows = 0
        for root in corpus():
            for definition in walk(root):
                for connector in definition.data_connectors:
                    flow = connector_flow(
                        definition,
                        connector.source,
                        connector.target,
                        connector.mappings,
                    )
                    if connector.source == PROCESS_INPUT:
                        source = filled(definition.input_spec, definition.types, rng)
                    else:
                        source = filled(
                            definition.activity(connector.source).output_spec,
                            definition.types,
                            rng,
                            output=True,
                        )
                    if connector.target == PROCESS_OUTPUT:
                        spec, output = definition.output_spec, True
                    else:
                        spec = definition.activity(connector.target).input_spec
                        output = False
                    compiled = Container(spec, definition.types, output=output)
                    reference = compiled.copy()
                    compiled.receive(source, flow)
                    reference.update_from(source, connector.mappings)
                    assert canon(compiled.to_dict()) == canon(reference.to_dict())
                    assert_typed(compiled)
                    flows += 1
                for activity in definition.activities.values():
                    if activity.kind is not ActivityKind.BLOCK:
                        continue
                    child = activity.block
                    into, out = boundary_flows(activity, definition.types, child)
                    parent_in = filled(activity.input_spec, definition.types, rng)
                    compiled = Container(child.input_spec, child.types)
                    reference = compiled.copy()
                    compiled.receive(parent_in, into)
                    for name in parent_in.members():
                        if name in {d.name for d in child.input_spec}:
                            reference.set(name, parent_in.get(name))
                    assert canon(compiled.to_dict()) == canon(reference.to_dict())
                    child_out = filled(
                        child.output_spec, child.types, rng, output=True
                    )
                    compiled = Container(
                        activity.output_spec, definition.types, output=True
                    )
                    reference = compiled.copy()
                    compiled.receive(child_out, out)
                    for name in reference.members():
                        if child_out.has(name):
                            reference.set(name, child_out.get(name))
                    assert canon(compiled.to_dict()) == canon(reference.to_dict())
                    flows += 2
        assert flows > 300

    def test_same_type_flat_pairs_compile_to_copies(self):
        plan = compile_plan(rich_process())
        (into_make,) = plan.data_into["Make"]
        assert into_make.copies == (("N", "N"),)
        assert [c[:2] for c in into_make.converts] == [("N", "F")]
        (into_blk,) = plan.data_into["Blk"]
        assert into_blk.copies == ()
        assert into_blk.paths == (
            ("Where", "Where"),
            ("Marks.1", "Mark"),
            ("Where.X", "K"),
        )

    def test_last_write_of_a_member_wins(self):
        d = rich_process()
        flow = connector_flow(
            d, "Make", PROCESS_OUTPUT, [("Marks.0", "Final"), ("Count", "Final")]
        )
        assert flow.copies == (("Count", "Final"),) and flow.paths == ()
        flow = connector_flow(
            d, "Make", PROCESS_OUTPUT, [("Count", "Final"), ("Marks.0", "Final")]
        )
        assert flow.copies == () and flow.paths == (("Marks.0", "Final"),)

    def test_resolver_reads_whole_members_as_get_does(self):
        plan = compile_plan(rich_process())
        output = plan.output_container("Make")
        output.set("Where", {"X": 4, "Y": 2.0})
        for name in output.members():
            assert output.resolver(name) == output.get(name)
        assert output.resolver("Where.X") == 4
        assert output.resolver("Marks.1") == output.get("Marks.1")
        assert output.resolver("Ghost") is None
        assert output.resolver("Where.Ghost") is None


class TestEndToEnd:
    def test_rich_process_matches_reference(self, monkeypatch):
        engine, seen = rich_engine()
        result = engine.run_process("Rich", {"N": 4})
        assert canon(result.output) == canon(RICH_OUTPUT)
        assert_engine_typed(engine)
        monkeypatch.setattr(Container, "receive", reference_receive)
        reference, reference_seen = rich_engine()
        expected = reference.run_process("Rich", {"N": 4})
        assert seen == reference_seen
        assert canon(result.output) == canon(expected.output)
        assert engine.execution_order(result.instance_id) == (
            reference.execution_order(expected.instance_id)
        )

    def test_widened_and_boundary_values_have_their_declared_type(self):
        engine, seen = rich_engine()
        engine.run_process("Rich", {"N": 4})
        inputs = dict(seen)
        assert inputs["Make"] == canon({"N": 4, "F": 4.0})
        # K is LONG in the parent's Blk input, FLOAT in the block's.
        assert inputs["Inner"] == canon(
            {"Where": {"X": 4, "Y": 2.0}, "K": 4.0, "Mark": 5}
        )

    @pytest.mark.parametrize("checkpoint_every", [None, 3])
    def test_recovery_from_every_step_keeps_the_invariant(
        self, tmp_path, checkpoint_every
    ):
        """Full replay restores containers through load_dict from the
        journal; a checkpoint restores them from a snapshot."""
        baseline, __ = rich_engine()
        baseline.start_process("Rich", {"N": 4})
        steps = baseline.run()
        assert steps >= 5
        for crash_after in range(steps):
            directory = str(tmp_path / ("s%d" % crash_after))
            store = DurableStore(
                directory, checkpoint_every_records=checkpoint_every
            )
            engine, __ = rich_engine(store)
            iid = engine.start_process("Rich", {"N": 4})
            for __ in range(crash_after):
                engine.step()
            engine.crash()
            recovered, __ = rich_engine(DurableStore(directory))
            recovered.recover()
            assert_engine_typed(recovered)
            recovered.run()
            assert_engine_typed(recovered)
            assert canon(recovered.output(iid)) == canon(RICH_OUTPUT)
            recovered.close()

    def test_journal_restored_source_feeds_compiled_copies(self, tmp_path):
        """Make's output is restored from the journal (JSON round trip,
        load_dict) before Loop's and Blk's inputs are built from it."""
        directory = str(tmp_path / "s")
        engine, __ = rich_engine(DurableStore(directory))
        iid = engine.start_process("Rich", {"N": 4})
        engine.step()  # Make completes, journaled
        engine.crash()
        recovered, seen = rich_engine(DurableStore(directory))
        recovered.recover()
        make = recovered.navigator.instance(iid).activity("Make")
        assert make.output.get("Where") == {"X": 4, "Y": 2.0}
        recovered.run()
        assert ("Loop", canon({"Count": 1})) in seen
        inner = {"Where": {"X": 4, "Y": 2.0}, "K": 4.0, "Mark": 5}
        assert ("Inner", canon(inner)) in seen
        assert canon(recovered.output(iid)) == canon(RICH_OUTPUT)
        recovered.close()
