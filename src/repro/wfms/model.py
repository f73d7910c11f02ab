"""Static workflow metamodel (§3.2 of the paper).

A :class:`ProcessDefinition` is an acyclic directed graph whose nodes
are :class:`Activity` objects and whose edges are control connectors
(order of execution, each with a transition condition) and data
connectors (mappings between output and input containers).

Activities come in three kinds, mirroring FlowMark:

* ``PROGRAM`` — executes a registered program,
* ``PROCESS`` — executes another *named* process definition (resolved
  through the engine's definition registry at run time),
* ``BLOCK``   — executes an *embedded* sub-definition; because exit
  conditions re-run an activity until they hold, a block whose exit
  condition is false loops, which is how FlowMark expresses iteration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Sequence

from repro.errors import DefinitionError
from repro.wfms.conditions import ALWAYS, Condition, parse_condition
from repro.wfms.datatypes import TypeRegistry, VariableDecl

#: Pseudo-endpoints for data connectors: the process's own containers.
PROCESS_INPUT = "_INPUT_"
PROCESS_OUTPUT = "_OUTPUT_"

#: Predefined output-container member holding the program return code.
RETURN_CODE = "_RC"


class ActivityKind(Enum):
    PROGRAM = "PROGRAM"
    PROCESS = "PROCESS"
    BLOCK = "BLOCK"


class StartMode(Enum):
    """Whether a ready activity starts by itself or waits for a user."""

    AUTOMATIC = "AUTOMATIC"
    MANUAL = "MANUAL"


class StartCondition(Enum):
    """Join semantics over incoming control connectors (§3.2)."""

    ALL = "AND"  # start when *all* incoming connectors evaluate true
    ANY = "OR"   # start when *one* incoming connector evaluates true


@dataclass
class StaffAssignment:
    """Who may execute a manual activity (§3.3).

    Either explicit ``users`` or every member of one of ``roles``; when
    both are empty the process starter is responsible.  ``notify_after``
    is the §3.3 deadline: if the activity sits unclaimed that long, a
    notification is sent to ``notify_role``.
    """

    roles: tuple[str, ...] = ()
    users: tuple[str, ...] = ()
    notify_after: float | None = None
    notify_role: str = ""

    def is_default(self) -> bool:
        return not self.roles and not self.users and self.notify_after is None


@dataclass
class Activity:
    """One step of a process (§3.2)."""

    name: str
    kind: ActivityKind = ActivityKind.PROGRAM
    program: str = ""           # PROGRAM: registered program name
    subprocess: str = ""        # PROCESS: name of another definition
    block: "ProcessDefinition | None" = None  # BLOCK: embedded definition
    input_spec: list[VariableDecl] = field(default_factory=list)
    output_spec: list[VariableDecl] = field(default_factory=list)
    start_condition: StartCondition = StartCondition.ALL
    exit_condition: Condition = ALWAYS
    start_mode: StartMode = StartMode.AUTOMATIC
    staff: StaffAssignment = field(default_factory=StaffAssignment)
    description: str = ""
    priority: int = 0
    #: Upper bound on exit-condition retries (0 = unbounded).  FlowMark
    #: has no such bound; it exists so tests can cap runaway loops.
    max_iterations: int = 0

    def __post_init__(self) -> None:
        if not self.name:
            raise DefinitionError("activity name must be non-empty")
        self.exit_condition = parse_condition(self.exit_condition)
        if self.kind is ActivityKind.PROGRAM and not self.program:
            raise DefinitionError(
                "program activity %s names no program" % self.name
            )
        if self.kind is ActivityKind.PROCESS and not self.subprocess:
            raise DefinitionError(
                "process activity %s names no subprocess" % self.name
            )
        if self.kind is ActivityKind.BLOCK and self.block is None:
            raise DefinitionError(
                "block activity %s embeds no definition" % self.name
            )
        self._check_spec(self.input_spec, "input")
        self._check_spec(self.output_spec, "output")

    def _check_spec(self, spec: Sequence[VariableDecl], which: str) -> None:
        seen: set[str] = set()
        for decl in spec:
            if decl.name in seen:
                raise DefinitionError(
                    "activity %s: duplicate %s member %s"
                    % (self.name, which, decl.name)
                )
            seen.add(decl.name)

    @property
    def is_manual(self) -> bool:
        return self.start_mode is StartMode.MANUAL


@dataclass(frozen=True)
class ControlConnector:
    """Directed edge carrying a transition condition (§3.2)."""

    source: str
    target: str
    condition: Condition = ALWAYS

    def __post_init__(self) -> None:
        object.__setattr__(self, "condition", parse_condition(self.condition))
        if self.source == self.target:
            raise DefinitionError(
                "control connector %s -> %s is a self-loop" % (self.source, self.target)
            )


@dataclass(frozen=True)
class DataConnector:
    """Mapping from one container to another (§3.2).

    ``source`` is an activity name (its *output* container) or
    :data:`PROCESS_INPUT`; ``target`` is an activity name (its *input*
    container) or :data:`PROCESS_OUTPUT`.  ``mappings`` is a tuple of
    ``(from_path, to_path)`` dotted member paths.
    """

    source: str
    target: str
    mappings: tuple[tuple[str, str], ...]

    def __post_init__(self) -> None:
        if not self.mappings:
            raise DefinitionError(
                "data connector %s -> %s maps nothing" % (self.source, self.target)
            )
        if self.source == PROCESS_OUTPUT:
            raise DefinitionError("the process output container is not a source")
        if self.target == PROCESS_INPUT:
            raise DefinitionError("the process input container is not a target")


class ProcessDefinition:
    """A complete process template (Figure 1's PROCESS box).

    Build one imperatively::

        defn = ProcessDefinition("Travel")
        defn.add_activity(Activity("BookFlight", program="book_flight"))
        defn.add_activity(Activity("BookHotel", program="book_hotel"))
        defn.connect("BookFlight", "BookHotel", condition="RC = 0")

    and validate it with :meth:`validate` (also called by the engine on
    registration).
    """

    def __init__(
        self,
        name: str,
        version: str = "1",
        description: str = "",
        input_spec: Iterable[VariableDecl] = (),
        output_spec: Iterable[VariableDecl] = (),
    ):
        if not name:
            raise DefinitionError("process name must be non-empty")
        self.name = name
        self.version = version
        self.description = description
        self.types = TypeRegistry()
        self.input_spec: list[VariableDecl] = list(input_spec)
        self.output_spec: list[VariableDecl] = list(output_spec)
        self.activities: dict[str, Activity] = {}
        self.control_connectors: list[ControlConnector] = []
        self.data_connectors: list[DataConnector] = []

    # -- construction -------------------------------------------------

    def add_activity(self, activity: Activity) -> Activity:
        if activity.name in self.activities:
            raise DefinitionError(
                "process %s already has activity %s" % (self.name, activity.name)
            )
        if activity.name in (PROCESS_INPUT, PROCESS_OUTPUT):
            raise DefinitionError(
                "activity name %s is reserved" % activity.name
            )
        self.activities[activity.name] = activity
        return activity

    def connect(
        self,
        source: str,
        target: str,
        condition: str | Condition | None = None,
    ) -> ControlConnector:
        """Add a control connector; duplicates are rejected."""
        connector = ControlConnector(source, target, parse_condition(condition))
        for existing in self.control_connectors:
            if existing.source == source and existing.target == target:
                raise DefinitionError(
                    "duplicate control connector %s -> %s" % (source, target)
                )
        self.control_connectors.append(connector)
        return connector

    def map_data(
        self,
        source: str,
        target: str,
        mappings: Iterable[tuple[str, str]],
    ) -> DataConnector:
        """Add a data connector mapping output members to input members."""
        connector = DataConnector(source, target, tuple(mappings))
        self.data_connectors.append(connector)
        return connector

    # -- queries -------------------------------------------------------

    def activity(self, name: str) -> Activity:
        try:
            return self.activities[name]
        except KeyError:
            raise DefinitionError(
                "process %s has no activity %r" % (self.name, name)
            ) from None

    def incoming(self, name: str) -> list[ControlConnector]:
        return [c for c in self.control_connectors if c.target == name]

    def outgoing(self, name: str) -> list[ControlConnector]:
        return [c for c in self.control_connectors if c.source == name]

    def starting_activities(self) -> list[str]:
        """Activities with no incoming control connector (§3.2)."""
        targets = {c.target for c in self.control_connectors}
        return [name for name in self.activities if name not in targets]

    def data_into(self, target: str) -> list[DataConnector]:
        return [c for c in self.data_connectors if c.target == target]

    def data_out_of(self, source: str) -> list[DataConnector]:
        return [c for c in self.data_connectors if c.source == source]

    def subprocess_names(self) -> set[str]:
        """Names of PROCESS activities' definitions (incl. nested blocks)."""
        names: set[str] = set()
        for activity in self.activities.values():
            if activity.kind is ActivityKind.PROCESS:
                names.add(activity.subprocess)
            elif activity.kind is ActivityKind.BLOCK:
                assert activity.block is not None
                names |= activity.block.subprocess_names()
        return names

    def program_names(self) -> set[str]:
        """Names of all programs referenced (incl. nested blocks)."""
        names: set[str] = set()
        for activity in self.activities.values():
            if activity.kind is ActivityKind.PROGRAM:
                names.add(activity.program)
            elif activity.kind is ActivityKind.BLOCK:
                assert activity.block is not None
                names |= activity.block.program_names()
        return names

    def validate(self) -> None:
        """Structural validation; see :mod:`repro.wfms.graph`."""
        from repro.wfms.graph import validate_definition

        validate_definition(self)

    def __repr__(self) -> str:
        return "ProcessDefinition(%r, activities=%d)" % (
            self.name,
            len(self.activities),
        )


# ---------------------------------------------------------------------------
# structural fingerprint
# ---------------------------------------------------------------------------

def _decl_payload(decl: VariableDecl) -> list:
    kind = decl.type.value if not isinstance(decl.type, str) else decl.type
    return [decl.name, kind, decl.array_size, decl.description]


def _activity_payload(activity: Activity) -> dict:
    return {
        "name": activity.name,
        "kind": activity.kind.value,
        "program": activity.program,
        "subprocess": activity.subprocess,
        "block": (
            _definition_payload(activity.block)
            if activity.block is not None
            else None
        ),
        "in": [_decl_payload(d) for d in activity.input_spec],
        "out": [_decl_payload(d) for d in activity.output_spec],
        "start": activity.start_condition.value,
        "exit": activity.exit_condition.source,
        "mode": activity.start_mode.value,
        "staff": [
            list(activity.staff.roles),
            list(activity.staff.users),
            activity.staff.notify_after,
            activity.staff.notify_role,
        ],
        "desc": activity.description,
        "prio": activity.priority,
        "max_iter": activity.max_iterations,
    }


def _definition_payload(definition: "ProcessDefinition") -> dict:
    types = definition.types
    return {
        "name": definition.name,
        "version": definition.version,
        "desc": definition.description,
        "types": [
            [
                name,
                [_decl_payload(m) for m in types.get(name).members],
                types.get(name).description,
            ]
            for name in sorted(types.names())
        ],
        "in": [_decl_payload(d) for d in definition.input_spec],
        "out": [_decl_payload(d) for d in definition.output_spec],
        "activities": [
            _activity_payload(definition.activities[name])
            for name in sorted(definition.activities)
        ],
        "control": sorted(
            [c.source, c.target, c.condition.source]
            for c in definition.control_connectors
        ),
        "data": sorted(
            [c.source, c.target, [list(pair) for pair in c.mappings]]
            for c in definition.data_connectors
        ),
    }


def definition_fingerprint(definition: "ProcessDefinition") -> str:
    """Canonical structural digest of a definition.

    Two definitions with equal fingerprints compile to identical
    navigation plans and execute identically: the digest covers the
    name/version/description, container specs, structure types, every
    activity's full configuration (conditions by source text, programs
    by name, embedded blocks recursively) and both connector sets.
    The registry uses it to make re-registration of a byte-identical
    definition a cache-preserving no-op — decorated flows re-register
    on every module re-import."""
    import hashlib
    import json

    payload = json.dumps(
        _definition_payload(definition),
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()
