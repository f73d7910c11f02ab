"""Structural validation of process definitions.

The paper's workflow model is "an acyclic directed graph" (§3.2); this
module enforces that plus referential integrity: connector endpoints
exist, data connectors map declared members, condition variables are
resolvable, and embedded blocks validate recursively.

It also type-checks data flow: every data-connector pair and every
block boundary must compile (:mod:`repro.wfms.plan`), so a path no
container could hold, or a pair whose types can never agree (STRING
into LONG, FLOAT into LONG, ...), is a :class:`DefinitionError` at
registration instead of a ``ContainerError`` when the step runs.
Subprocess boundaries resolve by name, so
:func:`check_subprocess_boundaries` runs with the engine's memoized
``verify_executable`` instead.
"""

from __future__ import annotations

from graphlib import CycleError, TopologicalSorter
from typing import Callable

from repro.errors import DefinitionError
from repro.wfms.datatypes import DataType, VariableDecl
from repro.wfms.model import (
    PROCESS_INPUT,
    PROCESS_OUTPUT,
    Activity,
    ActivityKind,
    ProcessDefinition,
)
from repro.wfms.plan import boundary_flows, connector_flow, declarations


def topological_order(definition: ProcessDefinition) -> list[str]:
    """Activities in a topological order of the control graph.

    Raises :class:`DefinitionError` when the graph has a cycle.
    """
    sorter: TopologicalSorter[str] = TopologicalSorter()
    for name in definition.activities:
        sorter.add(name)
    for connector in definition.control_connectors:
        sorter.add(connector.target, connector.source)
    try:
        return list(sorter.static_order())
    except CycleError as exc:
        raise DefinitionError(
            "process %s has a control-flow cycle: %s"
            % (definition.name, exc.args[1])
        ) from exc


def validate_definition(definition: ProcessDefinition) -> None:
    """Validate ``definition``; raises :class:`DefinitionError`."""
    if not definition.activities:
        raise DefinitionError("process %s has no activities" % definition.name)
    _check_endpoints(definition)
    topological_order(definition)  # acyclicity
    _check_data_connectors(definition)
    _check_conditions(definition)
    for activity in definition.activities.values():
        if activity.kind is ActivityKind.BLOCK:
            assert activity.block is not None
            validate_definition(activity.block)
            boundary_flows(activity, definition.types, activity.block)


def check_subprocess_boundaries(
    definition: ProcessDefinition,
    resolve: Callable[[str], ProcessDefinition],
) -> None:
    """Type-check the boundary of every PROCESS activity of
    ``definition`` (embedded blocks included) against the definition
    ``resolve`` returns for its name; raises :class:`DefinitionError`."""
    for activity in definition.activities.values():
        if activity.kind is ActivityKind.PROCESS:
            boundary_flows(
                activity, definition.types, resolve(activity.subprocess)
            )
        elif activity.kind is ActivityKind.BLOCK:
            assert activity.block is not None
            check_subprocess_boundaries(activity.block, resolve)


def _check_endpoints(definition: ProcessDefinition) -> None:
    for connector in definition.control_connectors:
        for endpoint in (connector.source, connector.target):
            if endpoint not in definition.activities:
                raise DefinitionError(
                    "process %s: control connector %s -> %s references "
                    "unknown activity %r"
                    % (definition.name, connector.source, connector.target, endpoint)
                )
    for connector in definition.data_connectors:
        if (
            connector.source != PROCESS_INPUT
            and connector.source not in definition.activities
        ):
            raise DefinitionError(
                "process %s: data connector source %r is unknown"
                % (definition.name, connector.source)
            )
        if (
            connector.target != PROCESS_OUTPUT
            and connector.target not in definition.activities
        ):
            raise DefinitionError(
                "process %s: data connector target %r is unknown"
                % (definition.name, connector.target)
            )


def _root_member(path: str) -> str:
    """``Order.Total`` -> ``Order`` (structure members check the root)."""
    return path.split(".", 1)[0]


def _check_data_connectors(definition: ProcessDefinition) -> None:
    """Every pair must address members its containers declare and
    type-check: compiling the connector checks both."""
    for connector in definition.data_connectors:
        connector_flow(
            definition, connector.source, connector.target, connector.mappings
        )


def _output_members(activity: Activity) -> set[str]:
    """Names a condition on ``activity``'s output may read: its
    members, the predefined ``_RC`` and its ``RC`` alias."""
    return set(declarations(activity.output_spec, output=True)) | {"RC"}


def _check_conditions(definition: ProcessDefinition) -> None:
    # Transition conditions read the *source* activity's output
    # container; exit conditions read the activity's own output
    # container.  (§3.2: "The result of the execution ... can be
    # captured through the return code of the program.")
    for connector in definition.control_connectors:
        available = _output_members(definition.activity(connector.source))
        for path in connector.condition.variables():
            if _root_member(path) not in available:
                raise DefinitionError(
                    "process %s: transition condition %r on %s -> %s "
                    "references %r which is not in %s's output container"
                    % (
                        definition.name,
                        connector.condition.source,
                        connector.source,
                        connector.target,
                        path,
                        connector.source,
                    )
                )
    for activity in definition.activities.values():
        available = _output_members(activity)
        for path in activity.exit_condition.variables():
            if _root_member(path) not in available:
                raise DefinitionError(
                    "process %s: exit condition %r of %s references %r "
                    "which is not in its output container"
                    % (
                        definition.name,
                        activity.exit_condition.source,
                        activity.name,
                        path,
                    )
                )


def reachable_activities(definition: ProcessDefinition) -> set[str]:
    """Activities reachable from the starting activities."""
    frontier = list(definition.starting_activities())
    seen: set[str] = set()
    while frontier:
        name = frontier.pop()
        if name in seen:
            continue
        seen.add(name)
        frontier.extend(c.target for c in definition.outgoing(name))
    return seen


def unreachable_activities(definition: ProcessDefinition) -> set[str]:
    """Activities that can never be scheduled (definition smells)."""
    return set(definition.activities) - reachable_activities(definition)


def declared_long(name: str) -> VariableDecl:
    """Convenience: a LONG member declaration (used by translators)."""
    return VariableDecl(name, DataType.LONG)


def declared_string(name: str) -> VariableDecl:
    """Convenience: a STRING member declaration (used by translators)."""
    return VariableDecl(name, DataType.STRING)
