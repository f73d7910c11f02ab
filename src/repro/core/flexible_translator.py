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
   compensatable members of its segment: the translation kit's
   (:mod:`repro.core.compblock`) dead-path block over those members;
   the members' ``State`` flags flow into the block through data
   connectors.
6. The compensation block's start condition is OR over the node's
   failure connectors, so any failure within the segment (or the
   exhaustion of the node's alternatives) triggers it.
7. Path switching "as a linear succession of events by taking advantage
   of the dead path elimination": after a node's compensation block
   terminates, control flows unconditionally (the block always
   completes) to the next alternative's entry activity; when the last
   alternative of a branch fails, control flows to the *parent* node's
   compensation block instead, cascading the failure upwards.
   Branches never taken are eliminated as dead paths, so the process
   always runs to completion.

A node that cannot fail (all members retriable, or its first
alternative cannot fail) makes later alternatives unreachable; the
translator prunes them and records a note.  The translation's members
are the members of the alternatives kept, in the order their first
activity is built; a member on two alternatives is one member with two
activities.
"""

from __future__ import annotations

from repro.wfms.model import (
    PROCESS_OUTPUT,
    Activity,
    ActivityKind,
    ProcessDefinition,
    StartCondition,
)
from repro.core.compblock import (
    DEAD_PATH,
    Member,
    Translation,
    build_compensation_block,
    chain,
    longs,
    state_var,
)
from repro.core.flexible import FlexibleOutcome, FlexibleSpec, PathTree

#: RC convention of §4.2: 1 = committed, 0 = aborted.
FLEX_COMMIT_RC = 1
FLEX_ABORT_RC = 0
COMMITTED = "RC = %d" % FLEX_COMMIT_RC


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
        output_spec=longs(
            ["Committed"] + [state_var(name) for name in sorted(spec.members)]
        ),
    )
    builder = _Builder(spec, process, max_retries)
    builder.build(spec.tree(), node_id="n", entry=None, failure_parent=None)
    process.validate()
    return Translation(
        spec,
        process,
        FLEX_COMMIT_RC,
        FLEX_ABORT_RC,
        FlexibleOutcome,
        list(builder.members.values()),
        DEAD_PATH,
        member_activities=builder.member_activities,
        notes=builder.notes,
    )


class _Builder:
    def __init__(
        self,
        spec: FlexibleSpec,
        process: ProcessDefinition,
        max_retries: int,
    ):
        self.spec = spec
        self.process = process
        self.max_retries = max_retries
        #: Members in the order their first activity was added.
        self.members: dict[str, Member] = {}
        #: node-qualified activity -> its member.
        self.member_activities: dict[str, str] = {}
        self.notes: list[str] = []

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
        entry: tuple[str, str] | None,
        failure_parent: str | None,
    ) -> None:
        """Build ``node``'s activities into the process.

        ``entry`` is the upstream activity that starts this node and
        the condition on its connector (None for the process start):
        a member's commit (``RC = 1``), or the previous alternative's
        compensation block, which always completes (``TRUE``).
        ``failure_parent`` is the compensation-block activity of the
        enclosing node to cascade into when this node's alternatives
        are exhausted (None at the root: total failure just ends the
        process, aborted).
        """
        failure_sources: list[tuple[str, str]] = []  # (activity, condition)
        segment_activities: list[tuple[str, str]] = []  # (member, activity)
        previous = entry
        for name in node.segment:
            activity_name = self._add_member_activity(name, node_id)
            segment_activities.append((name, activity_name))
            if previous is not None:
                source, condition = previous
                self.process.connect(source, activity_name, condition)
            if not self.spec.member(name).retriable:
                failure_sources.append(
                    (activity_name, "RC = %d" % FLEX_ABORT_RC)
                )
            previous = (activity_name, COMMITTED)

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
            if index > 0:
                # Entered after the previous alternative's compensation
                # block terminates.
                previous = (comp_block_activity("%s_%d" % (node_id, index)), "TRUE")
            self.build(
                child,
                "%s_%d" % (node_id, index + 1),
                entry=previous,
                failure_parent=comp_name if index == len(children) - 1 else None,
            )

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
                self.notes.append(
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
        spec_member = self.spec.member(name)
        member = self.members.setdefault(
            name,
            Member(
                name,
                "%s subtransaction" % spec_member.kind,
                spec_member.program,
                spec_member.compensation_program
                if spec_member.compensatable
                else "",
            ),
        )
        activity_name = name
        if activity_name in self.process.activities:
            activity_name = "%s__%s" % (name, node_id)
            self.member_activities[activity_name] = name
        retriable = spec_member.retriable
        self.process.add_activity(
            Activity(
                activity_name,
                program=member.program,
                output_spec=longs(["State"]),
                exit_condition=COMMITTED if retriable else "TRUE",
                max_iterations=self.max_retries if retriable else 0,
                description=member.description,
            )
        )
        self.process.map_data(
            activity_name, PROCESS_OUTPUT, [("State", state_var(name))]
        )
        return activity_name

    def _add_comp_block(
        self,
        node_id: str,
        segment_activities: list[tuple[str, str]],
        failure_sources: list[tuple[str, str]],
    ) -> None:
        members = [
            self.members[name]
            for name, __ in segment_activities
            if self.members[name].compensation
        ]
        block = build_compensation_block(
            "CompDef_%s" % node_id,
            members,
            chain(members),
            DEAD_PATH,
            commit_rc=FLEX_COMMIT_RC,
            max_attempts=self.max_retries,
            description="compensates segment of node %s" % node_id,
        )
        comp_name = comp_block_activity(node_id)
        self.process.add_activity(
            Activity(
                comp_name,
                kind=ActivityKind.BLOCK,
                block=block,
                input_spec=longs([state_var(m.name) for m in members]),
                output_spec=longs(["Done"]),
                start_condition=StartCondition.ANY,
                description="failure handler of node %s" % node_id,
            )
        )
        # Failure connectors trigger the block; when this node has
        # alternatives, the last alternative's compensation block also
        # cascades here (that edge is wired by the child's build).
        for source, condition in failure_sources:
            self.process.connect(source, comp_name, condition)
        for name, activity_name in segment_activities:
            if self.members[name].compensation:
                self.process.map_data(
                    activity_name, comp_name, [("State", state_var(name))]
                )
