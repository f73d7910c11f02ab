"""Tests for the binding layer: program registration, the compensation
chain's wiring and outcome reconstruction."""

import pytest

from repro.errors import SpecificationError
from repro.tx import AbortScript, SimDatabase, Subtransaction
from repro.tx.subtransaction import write_value
from repro.wfms.containers import Container
from repro.wfms.datatypes import DataType, VariableDecl
from repro.wfms.engine import Engine
from repro.wfms.programs import InvocationContext
from repro.core.bindings import (
    nop_program,
    register_programs,
    workflow_outcome,
)
from repro.core.compblock import (
    DEAD_PATH,
    Member,
    build_compensation_block,
    chain,
    state_var,
)
from repro.core.flexible import FlexibleMember, FlexibleSpec
from repro.core.flexible_translator import translate_flexible
from repro.core.saga_translator import translate_saga
from repro.core.sagas import SagaSpec, SagaStep
from repro.workloads.banking import fig3_bindings, fig3_spec


def make_ctx(input_spec=(), output_spec=(), input_values=None):
    inp = Container(list(input_spec))
    out = Container(list(output_spec), output=True)
    if input_values:
        inp.load_dict(input_values)
    return InvocationContext("A", "P", "pi-1", inp, out)


class TestNopProgram:
    def test_copies_matching_members(self):
        ctx = make_ctx(
            input_spec=[VariableDecl("X", DataType.LONG)],
            output_spec=[VariableDecl("X", DataType.LONG),
                         VariableDecl("Y", DataType.LONG)],
            input_values={"X": 5},
        )
        assert nop_program(ctx) == 0
        assert ctx.output.get("X") == 5
        assert ctx.output.get("Y") == 0  # untouched default

    def test_never_touches_rc(self):
        ctx = make_ctx()
        nop_program(ctx)
        assert ctx.output.return_code == 0


def prev_source(block, member):
    """The block-input flag that reaches ``Comp_<member>``'s ``Prev``,
    which its program forwards as ``Next`` to continue the chain."""
    (source,) = [
        src
        for c in block.data_connectors
        if c.target == "Comp_%s" % member
        for src, dst in c.mappings
        if dst == "Prev"
    ]
    return source


class TestPassthroughs:
    MEMBERS = [Member(n, "subtransaction", "t" + n, "c" + n) for n in "abc"]

    def block(self):
        return build_compensation_block(
            "B", self.MEMBERS, chain(self.MEMBERS), DEAD_PATH,
            commit_rc=0, max_attempts=1,
        )

    def test_first_item_forwards_own_state(self):
        assert prev_source(self.block(), "a") == state_var("a")

    def test_later_items_forward_previous_state(self):
        assert prev_source(self.block(), "c") == state_var("b")

    def test_saga_wrapper_matches(self):
        spec = SagaSpec("s", [SagaStep("a"), SagaStep("b")])
        block = translate_saga(spec).compensation_block
        assert prev_source(block, "b") == state_var("a")

    def test_shared_member_forwards_each_blocks_predecessor(self):
        # d sits on both alternatives, after c on one and after x on the
        # other: each block wires its own predecessor into Comp_d.
        spec = FlexibleSpec(
            "shared",
            [FlexibleMember(n, compensatable=True) for n in "acdbx"]
            + [FlexibleMember("f"), FlexibleMember("e", retriable=True)],
            [list("acdf"), list("abxde")],
        )
        process = translate_flexible(spec).process
        assert prev_source(
            process.activity("CompBlock_n_1").block, "d"
        ) == state_var("c")
        assert prev_source(
            process.activity("CompBlock_n_2").block, "d"
        ) == state_var("x")


class TestRegistration:
    def test_missing_saga_action_rejected(self):
        spec = SagaSpec("s", [SagaStep("a")])
        translation = translate_saga(spec)
        db = SimDatabase()
        comps = {"a": Subtransaction("ca", db, write_value("a", 0))}
        with pytest.raises(SpecificationError, match="a"):
            register_programs(Engine(), translation, {}, comps)

    def test_missing_flexible_compensation_rejected(self):
        spec = fig3_spec()
        translation = translate_flexible(spec)
        db = SimDatabase()
        actions, comps = fig3_bindings(db)
        del comps["t5"]
        with pytest.raises(SpecificationError, match="t5"):
            register_programs(Engine(), translation, actions, comps)

    def test_reregistration_replaces(self):
        spec = SagaSpec("s", [SagaStep("a")])
        translation = translate_saga(spec)
        db = SimDatabase()
        actions = {"a": Subtransaction("a", db, write_value("a", 1))}
        comps = {"a": Subtransaction("ca", db, write_value("a", 0))}
        engine = Engine()
        register_programs(engine, translation, actions, comps)
        register_programs(engine, translation, actions, comps)  # ok


class TestOutcomeReconstruction:
    def test_saga_outcome_orders_match_audit(self):
        spec = SagaSpec("s", [SagaStep("a"), SagaStep("b"), SagaStep("c")])
        db = SimDatabase()
        actions = {
            n: Subtransaction(n, db, write_value(n, 1)) for n in "abc"
        }
        actions["c"].policy = AbortScript([1])
        comps = {
            n: Subtransaction("c" + n, db, write_value(n, 0)) for n in "abc"
        }
        translation = translate_saga(spec)
        engine = Engine()
        register_programs(engine, translation, actions, comps)
        engine.register_definition(translation.process)
        result = engine.run_process(translation.process_name)
        outcome = workflow_outcome(engine, translation, result.instance_id)
        assert outcome.executed == ["a", "b"]
        assert outcome.compensated == ["b", "a"]
        assert not outcome.committed

    def test_flexible_shared_member_counted_once(self):
        spec = FlexibleSpec(
            "shared",
            [
                FlexibleMember("a", compensatable=True),
                FlexibleMember("x"),
                FlexibleMember("y", retriable=True),
                FlexibleMember("b", retriable=True),
            ],
            [["a", "x", "b"], ["a", "y", "b"]],
        )
        db = SimDatabase()
        actions = {
            n: Subtransaction(n, db, write_value(n, 1))
            for n in ("a", "x", "y", "b")
        }
        actions["x"].policy = AbortScript([1])  # force the fallback
        comps = {"a": Subtransaction("ca", db, write_value("a", 0))}
        translation = translate_flexible(spec)
        engine = Engine()
        register_programs(engine, translation, actions, comps)
        engine.register_definition(translation.process)
        result = engine.run_process(translation.process_name)
        outcome = workflow_outcome(engine, translation, result.instance_id)
        assert outcome.committed
        assert outcome.committed_path == ["a", "y", "b"]
        assert outcome.committed_members.count("b") == 1


class TestCompensationNames:
    """Only ``Comp_<m>`` of a member m that has a compensation is a
    compensation; a member may itself be called ``Comp_<x>``."""

    SPEC = SagaSpec("S", [SagaStep("Comp_a"), SagaStep("b")])

    def run(self, abort):
        db = SimDatabase()
        actions = {
            n: Subtransaction(n, db, write_value(n, 1)) for n in ("Comp_a", "b")
        }
        if abort:
            actions[abort].policy = AbortScript([1])
        comps = {
            n: Subtransaction("u" + n, db, write_value(n, 0))
            for n in ("Comp_a", "b")
        }
        translation = translate_saga(self.SPEC)
        engine = Engine()
        register_programs(engine, translation, actions, comps)
        engine.register_definition(translation.process)
        result = engine.run_process(translation.process_name)
        return workflow_outcome(engine, translation, result.instance_id)

    def test_committed_saga_compensated_nothing(self):
        outcome = self.run(None)
        assert outcome.committed
        assert outcome.executed == ["Comp_a", "b"]
        assert outcome.compensated == []

    def test_abort_reports_the_member_compensated(self):
        outcome = self.run("b")
        assert not outcome.committed
        assert outcome.compensated == ["Comp_a"]

    @pytest.mark.parametrize(
        "translate",
        [
            lambda: translate_saga(SagaSpec("S", [SagaStep("a"), SagaStep("Comp_a")])),
            lambda: translate_flexible(
                FlexibleSpec(
                    "F",
                    [FlexibleMember("a", compensatable=True),
                     FlexibleMember("Comp_a")],
                    [["a", "Comp_a"]],
                )
            ),
        ],
        ids=["saga", "flexible"],
    )
    def test_member_named_like_a_compensation_activity_rejected(
        self, translate
    ):
        with pytest.raises(SpecificationError, match="Comp_a"):
            translate()
