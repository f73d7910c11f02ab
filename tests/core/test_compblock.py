"""Direct unit tests for the shared compensation-block builder."""

import pytest

from repro.errors import DefinitionError
from repro.wfms.model import PROCESS_INPUT, PROCESS_OUTPUT, StartCondition
from repro.core.compblock import (
    DEAD_PATH,
    Member,
    build_compensation_block,
    chain,
    comp_activity_name,
    state_var,
)

MEMBERS = [Member(n, "subtransaction", "txn_" + n, "comp_" + n) for n in "abc"]


def dead_path_block(members=MEMBERS, *, commit_rc=0, max_attempts=1):
    return build_compensation_block(
        "Comp",
        members,
        chain(members),
        DEAD_PATH,
        commit_rc=commit_rc,
        max_attempts=max_attempts,
    )


class TestNames:
    def test_state_var(self):
        assert state_var("t1") == "State_t1"

    def test_comp_activity_name(self):
        assert comp_activity_name("t1") == "Comp_t1"


class TestConstruction:
    @pytest.fixture
    def block(self):
        return dead_path_block(max_attempts=9)

    def test_contains_nop_and_comp_activities(self, block):
        assert set(block.activities) == {
            "NOP", "Comp_a", "Comp_b", "Comp_c"
        }

    def test_input_members_are_states(self, block):
        assert [d.name for d in block.input_spec] == [
            "State_a", "State_b", "State_c"
        ]

    def test_triggers_select_last_executed(self, block):
        triggers = {
            c.target: c.condition.source
            for c in block.control_connectors
            if c.source == "NOP"
        }
        assert triggers["Comp_c"] == "State_c = 1"
        assert triggers["Comp_b"] == "State_b = 1 AND State_c = 0"
        assert triggers["Comp_a"] == "State_a = 1 AND State_b = 0"

    def test_reverse_chain(self, block):
        chain = [
            (c.source, c.target)
            for c in block.control_connectors
            if c.source != "NOP"
        ]
        assert chain == [("Comp_b", "Comp_a"), ("Comp_c", "Comp_b")]

    def test_comp_activities_retry_until_commit(self, block):
        for name in ("Comp_a", "Comp_b", "Comp_c"):
            activity = block.activity(name)
            assert activity.exit_condition.source == "RC = 0"
            assert activity.max_iterations == 9
            assert activity.start_condition is StartCondition.ANY

    def test_commit_rc_parameterised(self):
        block = dead_path_block(commit_rc=1, max_attempts=5)
        assert block.activity("Comp_a").exit_condition.source == "RC = 1"

    def test_states_flow_in_through_process_input(self, block):
        targets = {
            c.target
            for c in block.data_connectors
            if c.source == PROCESS_INPUT
        }
        assert targets == {"NOP", "Comp_a", "Comp_b", "Comp_c"}

    def test_done_flows_out(self, block):
        out = [
            c for c in block.data_connectors if c.target == PROCESS_OUTPUT
        ]
        assert out and all(("Next", "Done") in c.mappings for c in out)

    def test_empty_items_gives_nop_only_block(self):
        block = dead_path_block([])
        assert set(block.activities) == {"NOP"}
        block.validate()

    def test_block_validates(self, block):
        block.validate()


class TestPassthrough:
    """Which block-input flag reaches each ``Comp_m``'s ``Prev`` (its
    program forwards it as ``Next``, which advances the chain)."""

    @pytest.fixture
    def block(self):
        return dead_path_block()

    @staticmethod
    def prev_of(block, member):
        return [
            src
            for c in block.data_connectors
            if c.source == PROCESS_INPUT
            and c.target == comp_activity_name(member)
            for src, dst in c.mappings
            if dst == "Prev"
        ]

    def test_first_forwards_own_flag(self, block):
        assert self.prev_of(block, "a") == ["State_a"]

    def test_middle_forwards_previous(self, block):
        assert self.prev_of(block, "b") == ["State_a"]
        assert self.prev_of(block, "c") == ["State_b"]
        for name in ("Comp_a", "Comp_b", "Comp_c"):
            inputs = [d.name for d in block.activity(name).input_spec]
            assert inputs[-1] == "Prev"

    def test_unknown_member_raises(self, block):
        with pytest.raises(DefinitionError):
            block.activity(comp_activity_name("ghost"))

