"""Compiled navigation plans — the template-compilation layer (§5).

FlowMark separates build time from run time: FDL import produces an
*executable process template*, and run-time instances navigate that
template without re-deriving anything from the definition.  This module
is that separation for the reproduction.  :func:`compile_plan` lowers a
:class:`~repro.wfms.model.ProcessDefinition` once into a
:class:`NavigationPlan` whose lookups are all O(degree) dict reads:

* forward control-connector adjacency (``outgoing``) with each
  transition condition **compiled to a Python closure** (``None`` for
  the default ``TRUE`` condition, so unconditional edges skip the
  evaluator call entirely),
* per-target incoming connector keys (stamps a fresh instance's join
  bookkeeping without scanning the connector list per activity),
* per-target data connectors and per-source connectors into the
  process output container,
* compiled exit conditions per activity (``None`` when always true),
* the starting activities,
* prototype input/output containers per activity (and for the process
  itself) that are cloned per execution instead of re-deriving default
  values from declarations each time, and
* **compiled data flow**: every data connector becomes a
  :class:`DataFlow` (see :func:`compile_flow`), and so does each side
  of a block/subprocess boundary (:meth:`NavigationPlan.boundary`).
  A flow sorts its ``(from, to)`` pairs once, by declared type, into
  direct copies (same base type, flat scalar members), coercing writes
  (LONG -> FLOAT) and ``set(to, get(from))`` for structure, array and
  dotted paths; a pair whose types can never agree raises
  :class:`~repro.errors.DefinitionError` instead of compiling.

Plans are built and cached by
:meth:`repro.wfms.registry.DefinitionRegistry.plan_for` next to the
memoized ``verify_executable`` results and are invalidated with them:
registering any definition or program drops every cached plan, so a
stale plan can never outlive the template it was compiled from.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable

from repro.errors import DefinitionError
from repro.wfms.conditions import Resolver
from repro.wfms.containers import RC_DECL, Container
from repro.wfms.datatypes import (
    TypeRegistry,
    VariableDecl,
    assignable,
    path_decl,
)
from repro.wfms.model import (
    PROCESS_INPUT,
    PROCESS_OUTPUT,
    Activity,
    ProcessDefinition,
)


def declarations(
    spec: Iterable[VariableDecl], *, output: bool = False
) -> dict[str, VariableDecl]:
    """Member name -> declaration, in container order: an output
    container's predefined ``_RC`` comes first."""
    decls = {RC_DECL.name: RC_DECL} if output else {}
    decls.update((decl.name, decl) for decl in spec)
    return decls


def _is_flat(decl: VariableDecl | None) -> bool:
    return decl is not None and not decl.is_array and not decl.is_structure


class DataFlow:
    """One compiled data movement from a source container into a
    target container: a data connector, or one side of a block or
    subprocess boundary.  Run by :meth:`Container.receive`.

    * ``copies`` — ``(from, to)`` flat members of the same base type:
      the value is assigned as is (the container invariant says it
      already has the target's type);
    * ``converts`` — ``(from, to, coerce)`` widening flat pairs: the
      target type's coercion is applied;
    * ``paths`` — ``(from, to)`` structure, array or dotted paths:
      ``target.set(to, source.get(from))``.

    A member written whole by several pairs keeps only the last of them
    (the write that won at run time).  Copies and converts then touch
    members no other pair touches, and paths keep their order, so
    running the three groups in turn equals running the pairs in
    declaration order.
    """

    __slots__ = ("source", "target", "copies", "converts", "paths")

    def __init__(self, source: str, target: str):
        self.source = source
        self.target = target
        self.copies: tuple[tuple[str, str], ...] = ()
        self.converts: tuple[tuple[str, str, Callable[[Any], Any]], ...] = ()
        self.paths: tuple[tuple[str, str], ...] = ()


def compile_flow(
    mappings: Iterable[tuple[str, str]],
    source_decls: dict[str, VariableDecl],
    source_types: TypeRegistry,
    target_decls: dict[str, VariableDecl],
    target_types: TypeRegistry,
    *,
    source: str = "",
    target: str = "",
    where: str = "",
) -> DataFlow:
    """Compile ``(from_path, to_path)`` pairs into a :class:`DataFlow`.

    Raises :class:`DefinitionError` (prefixed by ``where``) for a path
    no container could hold, or for a pair whose declared types can
    never agree (see :func:`~repro.wfms.datatypes.assignable`).
    """
    #: (from, to, coerce): coerce is None for a direct copy, False
    #: for a path pair, else the target type's coercion.
    entries: list[tuple[str, str, Any]] = []
    for from_path, to_path in mappings:
        from_decl = _resolve(source_decls, from_path, source_types, where)
        to_decl = _resolve(target_decls, to_path, target_types, where)
        if not assignable(from_decl, source_types, to_decl, target_types):
            raise DefinitionError(
                "%s: %s (%s) can never be assigned to %s (%s)"
                % (
                    where,
                    from_path,
                    _type_name(from_decl),
                    to_path,
                    _type_name(to_decl),
                )
            )
        if to_path in target_decls:
            # A later write of a whole member replaces every earlier
            # one (none can fail once the pair type-checks).
            entries = [entry for entry in entries if entry[1] != to_path]
        if (
            from_path in source_decls
            and to_path in target_decls
            and _is_flat(from_decl)
            and _is_flat(to_decl)
        ):
            coerce = (
                None if from_decl.type is to_decl.type else to_decl.type.coerce
            )
        else:
            coerce = False
        entries.append((from_path, to_path, coerce))
    flow = DataFlow(source, target)
    flow.copies = tuple(
        (from_path, to_path)
        for from_path, to_path, coerce in entries
        if coerce is None
    )
    flow.converts = tuple(entry for entry in entries if entry[2])
    flow.paths = tuple(
        (from_path, to_path)
        for from_path, to_path, coerce in entries
        if coerce is False
    )
    return flow


def _resolve(
    decls: dict[str, VariableDecl], path: str, types: TypeRegistry, where: str
) -> VariableDecl:
    try:
        return path_decl(decls, path, types)
    except DefinitionError as exc:
        raise DefinitionError("%s maps %r: %s" % (where, path, exc)) from None


def _type_name(decl: VariableDecl) -> str:
    name = decl.type if decl.is_structure else decl.type.value
    return "%s[%d]" % (name, decl.array_size) if decl.is_array else name


def boundary_flows(
    activity: Activity,
    types: TypeRegistry,
    child: ProcessDefinition,
) -> tuple[DataFlow, DataFlow]:
    """The two data flows across a block/subprocess boundary:
    ``activity``'s input into ``child``'s process input (members both
    declare), and ``child``'s process output back into ``activity``'s
    output (members both declare, ``_RC`` included).  ``types`` is the
    registry of the definition that owns ``activity``."""
    parent_in = declarations(activity.input_spec)
    child_in = declarations(child.input_spec)
    child_out = declarations(child.output_spec, output=True)
    parent_out = declarations(activity.output_spec, output=True)
    where = "activity %s -> child %s" % (activity.name, child.name)
    into = compile_flow(
        ((name, name) for name in parent_in if name in child_in),
        parent_in,
        types,
        child_in,
        child.types,
        source=activity.name,
        target=child.name,
        where="%s input" % where,
    )
    out = compile_flow(
        ((name, name) for name in parent_out if name in child_out),
        child_out,
        child.types,
        parent_out,
        types,
        source=child.name,
        target=activity.name,
        where="%s output" % where,
    )
    return into, out


def connector_flow(
    definition: ProcessDefinition, source: str, target: str, mappings
) -> DataFlow:
    """Compile one data connector of ``definition``."""
    if source == PROCESS_INPUT:
        source_decls = declarations(definition.input_spec)
    else:
        source_decls = declarations(
            definition.activity(source).output_spec, output=True
        )
    if target == PROCESS_OUTPUT:
        # The process output container is itself an output container:
        # it carries the predefined return code so blocks can expose
        # one to the enclosing level (Figure 2's RC_FB).
        target_decls = declarations(definition.output_spec, output=True)
    else:
        target_decls = declarations(definition.activity(target).input_spec)
    return compile_flow(
        mappings,
        source_decls,
        definition.types,
        target_decls,
        definition.types,
        source=source,
        target=target,
        where="process %s: data connector %s -> %s"
        % (definition.name, source, target),
    )


class PlanConnector:
    """One compiled control connector.

    ``evaluate`` is the closure-compiled transition condition, or
    ``None`` when the condition is literally ``TRUE`` (the navigator
    then takes the edge without any call).
    """

    __slots__ = ("source", "target", "key", "evaluate")

    def __init__(
        self,
        source: str,
        target: str,
        evaluate: Callable[[Resolver], bool] | None,
    ):
        self.source = source
        self.target = target
        self.key = "%s->%s" % (source, target)
        self.evaluate = evaluate


class NavigationPlan:
    """Everything the navigator needs per (definition name, version),
    precomputed; see the module docstring.  Instances are immutable
    after :func:`compile_plan` returns, except for the boundary-flow
    cache that :meth:`boundary` fills."""

    __slots__ = (
        "definition",
        "starting",
        "outgoing",
        "incoming_keys",
        "data_into",
        "output_mappings",
        "exit_conditions",
        "_boundaries",
        "_input_protos",
        "_output_protos",
        "_process_input_proto",
        "_process_output_proto",
    )

    def __init__(self, definition: ProcessDefinition):
        self.definition = definition
        #: activity -> tuple[PlanConnector] (forward adjacency)
        self.outgoing: dict[str, tuple[PlanConnector, ...]] = {}
        #: activity -> tuple[connector key] (backward adjacency)
        self.incoming_keys: dict[str, tuple[str, ...]] = {}
        #: activity -> compiled data connectors feeding its input
        self.data_into: dict[str, tuple[DataFlow, ...]] = {}
        #: activity -> compiled data connectors from it into the
        #: process output
        self.output_mappings: dict[str, tuple[DataFlow, ...]] = {}
        #: activity -> compiled exit condition (None = always true)
        self.exit_conditions: dict[
            str, Callable[[Resolver], bool] | None
        ] = {}
        #: starting activities (no incoming control connector)
        self.starting: tuple[str, ...] = ()
        #: block/subprocess activity -> (child plan, into, out of)
        self._boundaries: dict[
            str, tuple["NavigationPlan", DataFlow, DataFlow]
        ] = {}
        self._input_protos: dict[str, Container] = {}
        self._output_protos: dict[str, Container] = {}
        self._process_input_proto = Container(
            definition.input_spec, definition.types
        )
        self._process_output_proto = Container(
            definition.output_spec, definition.types, output=True
        )

    # -- per-execution container stamping ------------------------------

    def input_container(self, activity: str) -> Container:
        """A fresh input container for one execution of ``activity``."""
        return self._input_protos[activity].fresh_copy()

    def output_container(self, activity: str) -> Container:
        """A fresh output container for one execution of ``activity``."""
        return self._output_protos[activity].fresh_copy()

    def process_input_container(self) -> Container:
        return self._process_input_proto.fresh_copy()

    def process_output_container(self) -> Container:
        return self._process_output_proto.fresh_copy()

    # -- block/subprocess boundaries -----------------------------------

    def boundary(
        self, activity: str, child: "NavigationPlan"
    ) -> tuple[DataFlow, DataFlow]:
        """The compiled flows into and out of ``child`` for the
        block/subprocess ``activity``: see :func:`boundary_flows`.

        Cached per activity and keyed on the child plan as well: a
        subprocess resolves by name at run time, and registering a
        definition compiles new plans, so an entry compiled against
        another child plan is never reused."""
        entry = self._boundaries.get(activity)
        if entry is not None and entry[0] is child:
            return entry[1], entry[2]
        into, out = boundary_flows(
            self.definition.activities[activity],
            self.definition.types,
            child.definition,
        )
        self._boundaries[activity] = (child, into, out)
        return into, out

    def __repr__(self) -> str:
        return "NavigationPlan(%r, version=%r, activities=%d)" % (
            self.definition.name,
            self.definition.version,
            len(self.exit_conditions),
        )


def compile_plan(definition: ProcessDefinition) -> NavigationPlan:
    """Lower ``definition`` into a :class:`NavigationPlan` (one-time
    cost, amortised over every instance of the template)."""
    plan = NavigationPlan(definition)
    outgoing: dict[str, list[PlanConnector]] = {}
    incoming_keys: dict[str, list[str]] = {}
    data_into: dict[str, list[DataFlow]] = {}
    output_mappings: dict[str, list[DataFlow]] = {}
    for name in definition.activities:
        outgoing[name] = []
        incoming_keys[name] = []
    for connector in definition.control_connectors:
        condition = connector.condition
        edge = PlanConnector(
            connector.source,
            connector.target,
            None if condition.is_always() else condition.compiled,
        )
        outgoing[connector.source].append(edge)
        incoming_keys[connector.target].append(edge.key)
    for connector in definition.data_connectors:
        flow = connector_flow(
            definition, connector.source, connector.target, connector.mappings
        )
        if connector.target == PROCESS_OUTPUT:
            output_mappings.setdefault(connector.source, []).append(flow)
        else:
            data_into.setdefault(connector.target, []).append(flow)
    for name, activity in definition.activities.items():
        exit_condition = activity.exit_condition
        if exit_condition.is_always():
            plan.exit_conditions[name] = None
        else:
            plan.exit_conditions[name] = exit_condition.compiled
        plan._input_protos[name] = Container(
            activity.input_spec, definition.types
        )
        plan._output_protos[name] = Container(
            activity.output_spec, definition.types, output=True
        )
    plan.outgoing = {
        name: tuple(edges) for name, edges in outgoing.items()
    }
    plan.incoming_keys = {
        name: tuple(keys) for name, keys in incoming_keys.items()
    }
    plan.data_into = {
        name: tuple(flows) for name, flows in data_into.items()
    }
    plan.output_mappings = {
        name: tuple(flows) for name, flows in output_mappings.items()
    }
    plan.starting = tuple(
        name for name in definition.activities if not incoming_keys[name]
    )
    return plan
