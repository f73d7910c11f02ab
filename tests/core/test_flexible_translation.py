"""Tests for the §4.2 flexible → workflow translation (Figure 4) and
its behavioural equivalence with the native executor."""

import pytest

from repro.tx import (
    AbortProbability,
    AbortScript,
    FailNTimes,
    SimDatabase,
    Subtransaction,
)
from repro.tx.subtransaction import write_value
from repro.wfms.engine import Engine
from repro.wfms.model import ActivityKind, StartCondition
from repro.core.bindings import register_programs, workflow_outcome
from repro.core.flexible import FlexibleMember, FlexibleSpec, NativeFlexibleExecutor
from repro.core.flexible_translator import translate_flexible
from repro.workloads.banking import fig3_bindings, fig3_spec
from repro.workloads.generator import flexible_bindings, random_flexible_spec


def run_workflow_flexible(spec, policies=None, db=None):
    db = db if db is not None else SimDatabase()
    actions, comps = fig3_bindings(db, policies or {})
    translation = translate_flexible(spec)
    engine = Engine()
    register_programs(engine, translation, actions, comps)
    engine.register_definition(translation.process)
    result = engine.run_process(translation.process_name)
    assert result.finished
    return engine, translation, result, db


class TestStructure:
    """The generated process matches Figure 4's shape for Figure 3."""

    @pytest.fixture
    def translation(self):
        return translate_flexible(fig3_spec())

    def test_every_member_is_an_activity(self, translation):
        names = set(translation.process.activities)
        for member in fig3_spec().members:
            assert member in names

    def test_pivot_has_two_outgoing_connectors(self, translation):
        # Rule 3: "Pivot activities have, at least, two outgoing
        # control connectors" (commit path and abort path).
        process = translation.process
        outgoing_t4 = {
            (c.target, c.condition.source) for c in process.outgoing("t4")
        }
        assert ("t5", "RC = 1") in outgoing_t4
        assert any(cond == "RC = 0" for __, cond in outgoing_t4)

    def test_retriable_loops_until_commit(self, translation):
        # Rule 4: exit condition false until the subtransaction commits.
        process = translation.process
        for name in ("t3", "t7"):
            assert process.activity(name).exit_condition.source == "RC = 1"

    def test_retriables_emit_no_failure_connector(self, translation):
        process = translation.process
        for name in ("t3", "t7"):
            assert all(
                c.condition.source != "RC = 0"
                for c in process.outgoing(name)
            )

    def test_compensation_blocks_present(self, translation):
        blocks = [
            a
            for a in translation.process.activities.values()
            if a.kind is ActivityKind.BLOCK
        ]
        assert blocks, "expected compensation blocks"
        assert all(
            a.start_condition is StartCondition.ANY for a in blocks
        )

    def test_t5_t6_failures_route_to_same_comp_block(self, translation):
        # The branch segment [t5, t6, t8] shares one failure handler
        # compensating t5 and t6 (rules 5+6).
        process = translation.process
        targets = set()
        for name in ("t5", "t6", "t8"):
            for connector in process.outgoing(name):
                if connector.condition.source == "RC = 1":
                    continue
                targets.add(connector.target)
        assert len(targets) == 1
        handler = process.activity(targets.pop())
        assert handler.kind is ActivityKind.BLOCK
        inner = set(handler.block.activities)
        assert inner == {"NOP", "Comp_t5", "Comp_t6"}

    def test_comp_block_feeds_alternative(self, translation):
        # Rule 7: after compensation, the next alternative (t7) starts.
        process = translation.process
        comp_blocks = [
            name
            for name, a in translation.process.activities.items()
            if a.kind is ActivityKind.BLOCK
        ]
        feeds_t7 = [
            c.source
            for c in process.incoming("t7")
            if c.source in comp_blocks
        ]
        assert len(feeds_t7) == 1

    def test_required_programs(self, translation):
        programs = translation.required_programs
        assert "nop" in programs
        for i in range(1, 9):
            assert "txn_t%d" % i in programs
        for name in ("comp_t1", "comp_t5", "comp_t6"):
            assert name in programs

    def test_unreachable_alternative_pruned(self):
        # First alternative cannot fail (all retriable) -> second is
        # dead code and pruned with a note.
        spec = FlexibleSpec(
            "prune",
            [
                FlexibleMember("a", compensatable=True),
                FlexibleMember("r1", retriable=True),
                FlexibleMember("r2", retriable=True),
            ],
            [["a", "r1"], ["a", "r2"]],
        )
        translation = translate_flexible(spec)
        assert "r2" not in translation.process.activities
        assert translation.notes

    def test_shared_member_across_alternatives_deduped(self):
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
        translation = translate_flexible(spec)
        names = set(translation.process.activities)
        b_activities = [n for n in names if n.split("__")[0] == "b"]
        assert len(b_activities) == 2


class TestExecution:
    """Appendix branches, executed through the workflow engine."""

    def test_all_commit_takes_preferred_path(self):
        engine, tr, result, db = run_workflow_flexible(fig3_spec())
        out = workflow_outcome(engine, tr, result.instance_id)
        assert out.committed
        assert out.committed_path == ["t1", "t2", "t4", "t5", "t6", "t8"]
        assert out.compensated == []

    def test_t1_abort_kills_everything_by_dead_path(self):
        # "If it aborts ... all other activities will be marked as
        # terminated following a similar mechanism."
        engine, tr, result, db = run_workflow_flexible(
            fig3_spec(), {"t1": AbortScript([1])}
        )
        out = workflow_outcome(engine, tr, result.instance_id)
        assert not out.committed
        assert out.compensated == []
        dead = set(result.dead_activities)
        assert {"t2", "t4", "t3"} <= dead

    def test_t2_abort_compensates_t1(self):
        engine, tr, result, db = run_workflow_flexible(
            fig3_spec(), {"t2": AbortScript([1])}
        )
        out = workflow_outcome(engine, tr, result.instance_id)
        assert not out.committed
        assert out.compensated == ["t1"]
        assert db.get("t1") == 0

    def test_t4_abort_retries_t3(self):
        engine, tr, result, db = run_workflow_flexible(
            fig3_spec(), {"t4": AbortScript([1]), "t3": FailNTimes(3)}
        )
        out = workflow_outcome(engine, tr, result.instance_id)
        assert out.committed
        assert out.committed_path == ["t1", "t2", "t3"]
        assert engine.audit.attempts(result.instance_id, "t3") == 4

    def test_t8_abort_compensates_then_t7(self):
        engine, tr, result, db = run_workflow_flexible(
            fig3_spec(), {"t8": AbortScript([1])}
        )
        out = workflow_outcome(engine, tr, result.instance_id)
        assert out.committed
        assert out.committed_path == ["t1", "t2", "t4", "t7"]
        assert out.compensated == ["t6", "t5"]
        # Compensation happened *before* t7 (order in the trail).
        order = engine.execution_order(result.instance_id)
        assert order.index("Comp_t6") < order.index("Comp_t5") < order.index("t7")

    def test_t5_abort_switches_without_compensation(self):
        engine, tr, result, db = run_workflow_flexible(
            fig3_spec(), {"t5": AbortScript([1])}
        )
        out = workflow_outcome(engine, tr, result.instance_id)
        assert out.committed
        assert out.committed_path == ["t1", "t2", "t4", "t7"]
        assert out.compensated == []

    def test_t6_abort_compensates_t5_only(self):
        engine, tr, result, db = run_workflow_flexible(
            fig3_spec(), {"t6": AbortScript([1])}
        )
        out = workflow_outcome(engine, tr, result.instance_id)
        assert out.compensated == ["t5"]
        assert db.get("t5") == 0

    def test_process_always_finishes(self):
        # Dead-path elimination must terminate the process on every
        # branch — no hanging activities.
        for policies in (
            {},
            {"t1": AbortScript([1])},
            {"t2": AbortScript([1])},
            {"t4": AbortScript([1])},
            {"t5": AbortScript([1])},
            {"t8": AbortScript([1])},
        ):
            engine, tr, result, db = run_workflow_flexible(
                fig3_spec(), dict(policies)
            )
            assert result.finished


class TestParityWithNative:
    def scenario_parity(self, policies):
        spec = fig3_spec()
        native_db = SimDatabase()
        actions, comps = fig3_bindings(native_db, dict(policies))
        native = NativeFlexibleExecutor(spec, actions, comps).run()

        engine, tr, result, wf_db = run_workflow_flexible(
            spec, dict(policies)
        )
        wf = workflow_outcome(engine, tr, result.instance_id)
        assert native.committed == wf.committed
        assert native.committed_path == wf.committed_path
        assert sorted(native.committed_members) == sorted(wf.committed_members)
        assert native.compensated == wf.compensated
        assert native_db.snapshot() == wf_db.snapshot()

    @pytest.mark.parametrize(
        "policies",
        [
            {},
            {"t1": AbortScript([1])},
            {"t2": AbortScript([1])},
            {"t4": AbortScript([1])},
            {"t5": AbortScript([1])},
            {"t6": AbortScript([1])},
            {"t8": AbortScript([1])},
            {"t8": AbortScript([1]), "t7": FailNTimes(2)},
            {"t4": AbortScript([1]), "t3": FailNTimes(2)},
            {"t5": AbortScript([1]), "t6": AbortScript([1])},
        ],
    )
    def test_fig3_parity(self, policies):
        self.scenario_parity(policies)

    @pytest.mark.parametrize("seed", range(6))
    def test_generated_spec_parity_under_random_failures(self, seed):
        spec = random_flexible_spec(branches=3, seed=seed)
        native_db = SimDatabase()
        actions, comps = flexible_bindings(
            spec, native_db, abort_probability=0.3, seed=seed
        )
        native = NativeFlexibleExecutor(spec, actions, comps).run()

        wf_db = SimDatabase()
        actions2, comps2 = flexible_bindings(
            spec, wf_db, abort_probability=0.3, seed=seed
        )
        translation = translate_flexible(spec)
        engine = Engine()
        register_programs(engine, translation, actions2, comps2)
        engine.register_definition(translation.process)
        result = engine.run_process(translation.process_name)
        wf = workflow_outcome(engine, translation, result.instance_id)

        assert native.committed == wf.committed, seed
        assert native.committed_path == wf.committed_path, seed
        assert native_db.snapshot() == wf_db.snapshot(), seed


class TestSharedMember:
    """d sits on both alternatives, after c on one and after x on the
    other.  Abandoning an alternative after d committed must still
    compensate the members before d on *that* alternative, and d
    running again on the next alternative ends committed."""

    PATHS = [list("acdf"), list("abxde")]

    @staticmethod
    def run(paths, abort):
        spec = FlexibleSpec(
            "shared",
            [FlexibleMember(n, compensatable=True) for n in "acdbx"]
            + [FlexibleMember("f"), FlexibleMember("e", retriable=True)],
            paths,
        )
        results = []
        for native in (True, False):
            db = SimDatabase()
            actions = {
                n: Subtransaction(n, db, write_value(n, 1))
                for n in spec.members
            }
            if abort:
                actions[abort].policy = AbortScript([1])
            comps = {
                n: Subtransaction("c" + n, db, write_value(n, 0))
                for n in "acdbx"
            }
            if native:
                outcome = NativeFlexibleExecutor(spec, actions, comps).run()
            else:
                translation = translate_flexible(spec)
                engine = Engine()
                register_programs(engine, translation, actions, comps)
                engine.register_definition(translation.process)
                result = engine.run_process(translation.process_name)
                outcome = workflow_outcome(
                    engine, translation, result.instance_id
                )
            results.append((outcome, db.snapshot()))
        return results

    def test_abandoned_alternative_fully_compensated(self):
        (native, native_db), (wf, wf_db) = self.run(self.PATHS, "f")
        assert wf_db["c"] == 0
        assert wf.committed_path == ["a", "b", "x", "d", "e"]
        # The workflow compensates d and runs it again; the native
        # executor keeps d, which the next alternative also needs.
        assert wf.compensated == ["d", "c"]
        assert native.compensated == ["c"]

    # An abort of d itself is left out: the native executor treats the
    # aborted d as dead on every alternative, the workflow runs it again.
    @pytest.mark.parametrize("abort", [None, "a", "c", "b", "x", "f", "e"])
    @pytest.mark.parametrize(
        "order", [0, 1], ids=["acdf-first", "abxde-first"]
    )
    def test_parity_with_native(self, order, abort):
        paths = self.PATHS if order == 0 else self.PATHS[::-1]
        (native, native_db), (wf, wf_db) = self.run(paths, abort)
        assert wf.committed == native.committed
        assert wf.committed_path == native.committed_path
        assert wf_db == native_db


class TestDoubleUnderscoreMemberNames:
    """A member's name may contain ``__``: the outcome maps a member's
    node-qualified activity (``<member>__<node>``, a member on two
    alternatives) through the translation, not by splitting names."""

    @staticmethod
    def run(spec, abort=None):
        results = []
        for native in (True, False):
            db = SimDatabase()
            actions = {
                n: Subtransaction(n, db, write_value(n, 1))
                for n in spec.members
            }
            if abort:
                actions[abort].policy = AbortScript([1])
            comps = {
                n: Subtransaction("c" + n, db, write_value(n, 0))
                for n, member in spec.members.items()
                if member.compensatable
            }
            if native:
                outcome = NativeFlexibleExecutor(spec, actions, comps).run()
            else:
                translation = translate_flexible(spec)
                engine = Engine()
                register_programs(engine, translation, actions, comps)
                engine.register_definition(translation.process)
                result = engine.run_process(translation.process_name)
                outcome = workflow_outcome(
                    engine, translation, result.instance_id
                )
            results.append((outcome, db.snapshot()))
        return results

    def test_member_on_one_path(self):
        spec = FlexibleSpec(
            "dunder",
            [FlexibleMember("a__b", compensatable=True), FlexibleMember("p")],
            [["a__b", "p"]],
        )
        (native, native_db), (wf, wf_db) = self.run(spec)
        assert wf_db == native_db == {"a__b": 1, "p": 1}
        assert wf.committed_path == native.committed_path == ["a__b", "p"]

    @pytest.mark.parametrize(
        "abort, path", [(None, ["a", "x", "m__n"]), ("x", ["a", "y", "m__n"])]
    )
    def test_shared_member_runs_node_qualified(self, abort, path):
        spec = FlexibleSpec(
            "dunder_shared",
            [
                FlexibleMember("a", compensatable=True),
                FlexibleMember("x"),
                FlexibleMember("y", retriable=True),
                FlexibleMember("m__n", retriable=True),
            ],
            [["a", "x", "m__n"], ["a", "y", "m__n"]],
        )
        qualified = [
            name
            for name in translate_flexible(spec).process.activities
            if name.startswith("m__n__")
        ]
        assert len(qualified) == 1
        (native, native_db), (wf, wf_db) = self.run(spec, abort)
        assert wf_db == native_db
        assert wf.committed_path == native.committed_path == path
