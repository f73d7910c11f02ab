"""Typed data for containers.

FlowMark containers hold *typed variables and structures* (§3.2).  We
support the four FDL base types plus user-defined structures, which may
nest.  Types are checked when containers are written, so a translator
bug that wires a string into an integer field fails loudly at runtime
instead of silently mis-evaluating a transition condition.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any

from repro.errors import ContainerError, DefinitionError


class DataType(Enum):
    """Base types available for container members."""

    LONG = "LONG"
    FLOAT = "FLOAT"
    STRING = "STRING"
    BINARY = "BINARY"

    def default(self) -> Any:
        """The value a member of this type holds before it is written."""
        if self is DataType.LONG:
            return 0
        if self is DataType.FLOAT:
            return 0.0
        if self is DataType.STRING:
            return ""
        return b""

    def accepts(self, value: Any) -> bool:
        """Whether ``value`` may be stored in a member of this type."""
        if self is DataType.LONG:
            return isinstance(value, int) and not isinstance(value, bool)
        if self is DataType.FLOAT:
            return isinstance(value, (int, float)) and not isinstance(value, bool)
        if self is DataType.STRING:
            return isinstance(value, str)
        return isinstance(value, (bytes, bytearray))

    def coerce(self, value: Any) -> Any:
        """Coerce ``value`` for storage, raising on type mismatch."""
        if not self.accepts(value):
            raise ContainerError(
                "value %r is not assignable to type %s" % (value, self.value)
            )
        if self is DataType.FLOAT:
            return float(value)
        if self is DataType.BINARY:
            return bytes(value)
        return value


@dataclass(frozen=True)
class VariableDecl:
    """Declaration of one container member.

    ``type`` is either a :class:`DataType` or the *name* of a registered
    :class:`StructureType`.  Array members carry ``array_size`` > 0 and
    hold a fixed-length list.
    """

    name: str
    type: DataType | str = DataType.STRING
    array_size: int = 0
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name or not _is_identifier(self.name):
            raise DefinitionError("illegal member name %r" % (self.name,))
        if self.array_size < 0:
            raise DefinitionError(
                "member %s: array size must be >= 0" % self.name
            )

    @property
    def is_structure(self) -> bool:
        return isinstance(self.type, str)

    @property
    def is_array(self) -> bool:
        return self.array_size > 0


@dataclass
class StructureType:
    """A user-defined record type for container members.

    Structures nest by referencing other structures by name; cycles are
    rejected by :meth:`TypeRegistry.register`.
    """

    name: str
    members: list[VariableDecl] = field(default_factory=list)
    description: str = ""

    def __post_init__(self) -> None:
        if not _is_identifier(self.name):
            raise DefinitionError("illegal structure name %r" % (self.name,))
        seen: set[str] = set()
        for member in self.members:
            if member.name in seen:
                raise DefinitionError(
                    "structure %s: duplicate member %s" % (self.name, member.name)
                )
            seen.add(member.name)

    def member(self, name: str) -> VariableDecl:
        for candidate in self.members:
            if candidate.name == name:
                return candidate
        raise ContainerError(
            "structure %s has no member %r" % (self.name, name)
        )


class TypeRegistry:
    """Registry of structure types for one process definition.

    FlowMark keeps structure definitions global to the FDL file; we
    scope them to a registry owned by the definition so two processes
    can use different structures with the same name.
    """

    def __init__(self) -> None:
        self._structures: dict[str, StructureType] = {}

    def register(self, structure: StructureType) -> StructureType:
        """Register ``structure``, checking member types and cycles."""
        if structure.name in self._structures:
            raise DefinitionError(
                "structure %s is already registered" % structure.name
            )
        for member in structure.members:
            if member.is_structure and member.type != structure.name:
                if member.type not in self._structures:
                    raise DefinitionError(
                        "structure %s references unknown structure %s"
                        % (structure.name, member.type)
                    )
        self._check_acyclic(structure)
        self._structures[structure.name] = structure
        return structure

    def get(self, name: str) -> StructureType:
        try:
            return self._structures[name]
        except KeyError:
            raise DefinitionError("unknown structure type %r" % (name,)) from None

    def __contains__(self, name: str) -> bool:
        return name in self._structures

    def names(self) -> list[str]:
        return sorted(self._structures)

    def default_value(self, decl: VariableDecl) -> Any:
        """Build the default value tree for a declaration."""
        if decl.is_array:
            scalar = VariableDecl(decl.name, decl.type)
            return [self.default_value(scalar) for _ in range(decl.array_size)]
        if decl.is_structure:
            structure = self.get(str(decl.type))
            return {m.name: self.default_value(m) for m in structure.members}
        assert isinstance(decl.type, DataType)
        return decl.type.default()

    def _check_acyclic(self, new: StructureType) -> None:
        # A structure may not (transitively) contain itself: expansion
        # to default values would not terminate.
        stack = [str(m.type) for m in new.members if m.is_structure]
        seen: set[str] = set()
        while stack:
            name = stack.pop()
            if name == new.name:
                raise DefinitionError(
                    "structure %s would contain itself" % new.name
                )
            if name in seen or name not in self._structures:
                continue
            seen.add(name)
            stack.extend(
                str(m.type)
                for m in self._structures[name].members
                if m.is_structure
            )


# ---------------------------------------------------------------------------
# static assignability (compiled data flow, registration checks)
# ---------------------------------------------------------------------------


def _element(decl: VariableDecl) -> VariableDecl:
    """The declaration of one element of array member ``decl``."""
    return VariableDecl(decl.name, decl.type)


def path_decl(
    decls: dict[str, VariableDecl], path: str, types: TypeRegistry
) -> VariableDecl:
    """The declaration the dotted container ``path`` addresses.

    Mirrors :class:`~repro.wfms.containers.Container` addressing: a
    digit part indexes an array, a name part selects a structure
    member.  Raises :class:`DefinitionError` when no container built
    from ``decls`` could ever hold a value at ``path``.
    """
    root, *rest = path.split(".")
    decl = decls.get(root)
    if decl is None:
        raise DefinitionError("unknown member %r" % root)
    for part in rest:
        if decl.is_array:
            if not part.isdigit() or int(part) >= decl.array_size:
                raise DefinitionError(
                    "path %r: %r is not an index of %s[%d]"
                    % (path, part, decl.name, decl.array_size)
                )
            decl = _element(decl)
        elif decl.is_structure:
            try:
                decl = types.get(str(decl.type)).member(part)
            except ContainerError:
                raise DefinitionError(
                    "path %r: structure %s has no member %r"
                    % (path, decl.type, part)
                ) from None
        else:
            raise DefinitionError("path %r descends into a scalar" % path)
    return decl


def assignable(
    source: VariableDecl,
    source_types: TypeRegistry,
    target: VariableDecl,
    target_types: TypeRegistry,
) -> bool:
    """Whether a value held under ``source`` can ever be written under
    ``target`` (:meth:`DataType.coerce` and structure coercion accept
    it).  Scalars agree on the same base type or widen LONG -> FLOAT;
    arrays need the same size and assignable elements; a structure
    needs every one of its members in the target structure."""
    if target.is_array or source.is_array:
        return (
            source.array_size == target.array_size
            and assignable(
                _element(source), source_types, _element(target), target_types
            )
        )
    if target.is_structure or source.is_structure:
        if not (target.is_structure and source.is_structure):
            return False
        into = target_types.get(str(target.type))
        for member in source_types.get(str(source.type)).members:
            try:
                counterpart = into.member(member.name)
            except ContainerError:
                return False
            if not assignable(member, source_types, counterpart, target_types):
                return False
        return True
    return source.type is target.type or (
        source.type is DataType.LONG and target.type is DataType.FLOAT
    )


def _is_identifier(name: str) -> bool:
    """Container member / structure names: identifiers, underscores ok.

    FlowMark reserves leading-underscore names (``_RC``, ``_PROCESS``)
    for predefined members; we allow them so the engine itself can
    declare them, and validate user specs at a higher layer.
    """
    if not name:
        return False
    head, tail = name[0], name[1:]
    if not (head.isalpha() or head == "_"):
        return False
    return all(ch.isalnum() or ch == "_" for ch in tail)
