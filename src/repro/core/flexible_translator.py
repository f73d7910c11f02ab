"""Flexible transaction → workflow process: the §4.2 construction
(Figure 4).

The seven translation rules of the paper, realised over the
alternative-path tree:

1. Every subtransaction (and compensating subtransaction) becomes an
   activity; RC convention of §4.2: ``1`` = committed, ``0`` = aborted.
2. Ordering follows the path tree: consecutive members of a segment are
   chained with ``RC = 1`` control connectors.
3. Activities that may abort permanently (non-retriable — pivots and
   plain compensatables) are branching points: a second outgoing
   connector with condition ``RC = 0`` routes to the failure handler.
4. Retriable activities carry exit condition ``RC = 1`` so they are
   "repeated until the subtransaction commits"; they emit no failure
   connector.
5. + 6. Each tree node owns one *compensation block* covering the
   compensatable members of its segment (built by
   :mod:`repro.core.compblock`); the members' ``State`` flags flow into
   the block through data connectors.
6. The compensation block's start condition is OR over the node's
   failure connectors, so any failure within the segment (or the
   exhaustion of the node's alternatives) triggers it.
7. Path switching "as a linear succession of events by taking advantage
   of the dead path elimination": after a node's compensation block
   terminates, control flows to the next alternative's entry activity;
   when the last alternative of a branch fails, control flows to the
   *parent* node's compensation block instead, cascading the failure
   upwards.  Branches never taken are eliminated as dead paths, so the
   process always runs to completion.

A node that cannot fail (all members retriable, or its first
alternative cannot fail) makes later alternatives unreachable; the
translator prunes them and records a note.
"""

from __future__ import annotations

from repro.errors import TranslationError
from repro.wfms.datatypes import DataType, VariableDecl
from repro.wfms.model import (
    PROCESS_OUTPUT,
    Activity,
    ActivityKind,
    ProcessDefinition,
    StartCondition,
)
from repro.core.compblock import (
    NOP_PROGRAM,
    Translation,
    build_compensation_block,
    state_var,
)
from repro.core.flexible import FlexibleOutcome, FlexibleSpec, PathTree

#: RC convention of §4.2: 1 = committed, 0 = aborted.
FLEX_COMMIT_RC = 1
FLEX_ABORT_RC = 0


def comp_block_activity(node_id: str) -> str:
    return "CompBlock_%s" % node_id


def translate_flexible(
    spec: FlexibleSpec, *, max_retries: int = 100
) -> Translation:
    """Translate ``spec`` into a workflow process (Figure 4)."""
    spec.validate()
    process = ProcessDefinition(
        "Flexible_%s" % spec.name,
        description="§4.2 translation of flexible transaction %r" % spec.name,
        output_spec=[VariableDecl("Committed", DataType.LONG)]
        + [
            VariableDecl(state_var(name), DataType.LONG)
            for name in sorted(spec.members)
        ],
    )
    translation = Translation(
        spec,
        process,
        {NOP_PROGRAM: "null activity (compensation trigger)"},
        FLEX_COMMIT_RC,
        FLEX_ABORT_RC,
        FlexibleOutcome,
    )
    builder = _Builder(spec, process, translation, max_retries)
    builder.build(spec.tree(), node_id="n", entry=None, failure_parent=None)
    process.validate()
    return translation


class _Builder:
    def __init__(
        self,
        spec: FlexibleSpec,
        process: ProcessDefinition,
        translation: Translation,
        max_retries: int,
    ):
        self.spec = spec
        self.process = process
        self.translation = translation
        self.max_retries = max_retries

    # -- failure analysis ---------------------------------------------------

    def can_fail(self, node: PathTree) -> bool:
        segment_can_fail = any(
            not self.spec.member(m).retriable for m in node.segment
        )
        if segment_can_fail:
            return True
        if node.children:
            return self.can_fail(node.children[-1])
        return False

    # -- construction ------------------------------------------------------------

    def build(
        self,
        node: PathTree,
        node_id: str,
        entry: str | None,
        failure_parent: str | None,
    ) -> None:
        """Build ``node``'s activities into the process.

        ``entry`` is the upstream activity whose commit (``RC = 1``)
        starts this node (None for the process start).
        ``failure_parent`` is the compensation-block activity of the
        enclosing node to cascade into when this node's alternatives
        are exhausted (None at the root: total failure just ends the
        process, aborted).
        """
        failure_sources: list[tuple[str, str]] = []  # (activity, condition)
        segment_activities: list[tuple[str, str]] = []  # (member, activity)
        previous = entry
        previous_condition = "RC = %d" % FLEX_COMMIT_RC
        for name in node.segment:
            member = self.spec.member(name)
            activity_name = self._add_member_activity(name, node_id)
            segment_activities.append((name, activity_name))
            if previous is not None:
                self.process.connect(previous, activity_name, previous_condition)
            if not member.retriable:
                failure_sources.append(
                    (activity_name, "RC = %d" % FLEX_ABORT_RC)
                )
            previous = activity_name
            previous_condition = "RC = %d" % FLEX_COMMIT_RC

        children = self._prune_children(node, node_id)
        # A compensation block is built only when something can trigger
        # it: a failure connector from the segment, or the exhaustion
        # cascade from a last alternative that can itself fail.
        comp_needed = bool(failure_sources) or (
            bool(children) and self.can_fail(children[-1])
        )
        comp_name = comp_block_activity(node_id) if comp_needed else None

        # Build children (alternatives) in preference order.  Failure
        # of alternative i continues into alternative i+1 (through i's
        # compensation block); only the *last* alternative cascades
        # into this node's own compensation block.
        for index, child in enumerate(children):
            child_id = "%s_%d" % (node_id, index + 1)
            if index == 0:
                child_entry = previous  # enter on segment commit
            else:
                # Entered after the previous alternative's compensation
                # block terminates.
                child_entry = comp_block_activity(
                    "%s_%d" % (node_id, index)
                )
            is_last = index == len(children) - 1
            self.build(
                child,
                child_id,
                entry=child_entry,
                failure_parent=comp_name if is_last else None,
            )
            if index > 0:
                # The entry condition from a compensation block is
                # unconditional (the block always completes).
                self._relax_entry_condition(child_entry)

        if comp_needed:
            self._add_comp_block(
                node_id, segment_activities, failure_sources
            )
            # Cascade into the parent's compensation block when this
            # node's alternatives are exhausted.
            if failure_parent is not None:
                self.process.connect(comp_name, failure_parent, "TRUE")

        if not children and node.segment:
            # Leaf: the last member committing commits the transaction.
            self.process.map_data(
                segment_activities[-1][1],
                PROCESS_OUTPUT,
                [("State", "Committed")],
            )

    def _prune_children(
        self, node: PathTree, node_id: str
    ) -> list[PathTree]:
        children = list(node.children)
        for index, child in enumerate(children):
            if not self.can_fail(child) and index + 1 < len(children):
                dropped = [
                    "->".join(p)
                    for sibling in children[index + 1:]
                    for p in sibling.paths()
                ]
                self.translation.notes.append(
                    "node %s: alternative(s) %s are unreachable (the "
                    "preferred alternative cannot fail) and were pruned"
                    % (node_id, dropped)
                )
                return children[: index + 1]
        return children

    def _add_member_activity(self, name: str, node_id: str) -> str:
        """Add the activity for member ``name``; returns its activity
        name (qualified with the node id when the same member appears
        in a sibling alternative)."""
        member = self.spec.member(name)
        activity_name = name
        if activity_name in self.process.activities:
            activity_name = "%s__%s" % (name, node_id)
        exit_condition = (
            "RC = %d" % FLEX_COMMIT_RC if member.retriable else "TRUE"
        )
        self.process.add_activity(
            Activity(
                activity_name,
                program=member.program,
                output_spec=[VariableDecl("State", DataType.LONG)],
                exit_condition=exit_condition,
                max_iterations=self.max_retries if member.retriable else 0,
                description="%s subtransaction %s" % (member.kind, name),
            )
        )
        self.process.map_data(
            activity_name, PROCESS_OUTPUT, [("State", state_var(name))]
        )
        self.translation.programs[name] = member.program
        self.translation.required_programs[member.program] = (
            "%s subtransaction %s" % (member.kind, name)
        )
        if member.compensatable:
            self.translation.compensation_programs[name] = (
                member.compensation_program
            )
            self.translation.required_programs[member.compensation_program] = (
                "compensation of %s" % name
            )
        return activity_name

    def _add_comp_block(
        self,
        node_id: str,
        segment_activities: list[tuple[str, str]],
        failure_sources: list[tuple[str, str]],
    ) -> None:
        items = [
            (member, self.spec.member(member).compensation_program)
            for member, __ in segment_activities
            if self.spec.member(member).compensatable
        ]
        block = build_compensation_block(
            "CompDef_%s" % node_id,
            items,
            commit_rc=FLEX_COMMIT_RC,
            max_attempts=self.max_retries,
            description="compensates segment of node %s" % node_id,
        )
        comp_name = comp_block_activity(node_id)
        states = [state_var(member) for member, __ in items]
        self.process.add_activity(
            Activity(
                comp_name,
                kind=ActivityKind.BLOCK,
                block=block,
                input_spec=[VariableDecl(s, DataType.LONG) for s in states],
                output_spec=[VariableDecl("Done", DataType.LONG)],
                start_condition=StartCondition.ANY,
                description="failure handler of node %s" % node_id,
            )
        )
        # Failure connectors trigger the block; when this node has
        # alternatives, the last alternative's compensation block also
        # cascades here (that edge is wired by the child's build).
        for source, condition in failure_sources:
            self.process.connect(source, comp_name, condition)
        compensatable = {member for member, __ in items}
        for member, activity_name in segment_activities:
            if member in compensatable:
                self.process.map_data(
                    activity_name, comp_name, [("State", state_var(member))]
                )

    def _relax_entry_condition(self, source: str) -> None:
        """Rewrite the (single) outgoing edge of ``source`` — a
        compensation block feeding the next alternative — to be
        unconditional: the block always completes successfully."""
        outgoing = [
            (i, c)
            for i, c in enumerate(self.process.control_connectors)
            if c.source == source
        ]
        if len(outgoing) != 1:
            raise TranslationError(
                "internal: expected exactly one edge out of %s, found %d"
                % (source, len(outgoing))
            )
        index, connector = outgoing[0]
        self.process.control_connectors[index] = type(connector)(
            connector.source, connector.target, "TRUE"
        )
