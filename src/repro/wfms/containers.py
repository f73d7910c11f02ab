"""Run-time data containers.

Each activity instance owns an *input* and an *output* container built
from the activity's declarations (§3.2).  Containers are addressed with
dotted paths (``Order.Total``, ``Items.2`` for array elements) and are
type-checked on write.  They serialise to plain JSON-able dicts so the
journal can persist them for forward recovery.

Invariant: **every stored flat (scalar) value already has its declared
type.**  Every writer coerces — :meth:`Container.set`,
:meth:`Container.assign` (start inputs and forced outputs, live and on
replay) and the converts of :meth:`Container.receive` — except
:meth:`Container.load_dict`, which only restores outputs the engine
filled itself (program, child and process outputs), from journal
records and checkpoints of checked containers.  Compiled data flow
(:class:`repro.wfms.plan.DataFlow`) relies on it to copy same-type
flat values without re-coercing them, and :meth:`Container.to_dict`
to copy a flat container with ``dict()``.
"""

from __future__ import annotations

import copy
from typing import Any, Iterable, Iterator

from repro.errors import ContainerError
from repro.wfms.datatypes import DataType, TypeRegistry, VariableDecl
from repro.wfms.model import RETURN_CODE

#: Shared declaration of the predefined ``_RC`` member; hoisted so output
#: containers do not revalidate an identical declaration per construction.
RC_DECL = VariableDecl(RETURN_CODE, DataType.LONG)


class Container:
    """A typed record of container members.

    >>> spec = [VariableDecl("Total", DataType.LONG)]
    >>> c = Container(spec, TypeRegistry(), output=True)
    >>> c.set("Total", 7)
    >>> c.get("Total")
    7
    >>> c.get("_RC")     # predefined on output containers
    0
    """

    __slots__ = ("_decls", "_types", "_values", "_output", "_flat")

    def __init__(
        self,
        spec: Iterable[VariableDecl],
        types: TypeRegistry | None = None,
        *,
        output: bool = False,
    ):
        self._types = types if types is not None else TypeRegistry()
        self._decls: dict[str, VariableDecl] = {}
        self._values: dict[str, Any] = {}
        self._output = output
        if output:
            self._decls[RETURN_CODE] = RC_DECL
            self._values[RETURN_CODE] = 0
        for decl in spec:
            if decl.name in self._decls:
                raise ContainerError("duplicate member %r" % decl.name)
            self._decls[decl.name] = decl
            self._values[decl.name] = self._types.default_value(decl)
        #: all defaults scalar → a fresh copy is a plain dict copy
        self._flat = not any(
            isinstance(value, (dict, list)) for value in self._values.values()
        )

    def fresh_copy(self) -> "Container":
        """A new container with this one's declarations and *current*
        values; used by compiled navigation plans to stamp per-execution
        containers from a prototype without re-deriving defaults.

        Declarations are shared (they are never mutated after
        construction); values are copied — a plain dict copy when every
        member is scalar, a deep copy otherwise.
        """
        clone = Container.__new__(Container)
        clone._decls = self._decls
        clone._types = self._types
        clone._output = self._output
        clone._flat = self._flat
        clone._values = (
            dict(self._values) if self._flat else copy.deepcopy(self._values)
        )
        return clone

    # -- access --------------------------------------------------------

    def has(self, path: str) -> bool:
        try:
            self.get(path)
            return True
        except ContainerError:
            return False

    def get(self, path: str) -> Any:
        """Read the member at dotted ``path``."""
        root, rest = _split(path)
        if root not in self._values:
            raise ContainerError("container has no member %r" % root)
        value = self._values[root]
        for part in rest:
            value = _descend(value, part, path)
        return copy.deepcopy(value) if isinstance(value, (dict, list)) else value

    def set(self, path: str, value: Any) -> None:
        """Write ``value`` at dotted ``path`` with type checking."""
        root, rest = _split(path)
        if root not in self._decls:
            raise ContainerError("container has no member %r" % root)
        decl = self._decls[root]
        if not rest:
            coerced = self._coerce(decl, value, path)
            self._values[root] = coerced
            if self._flat and isinstance(coerced, (dict, list)):
                self._flat = False
            return
        target = self._values[root]
        for part in rest[:-1]:
            target = _descend(target, part, path)
        leaf = rest[-1]
        if isinstance(target, list):
            index = _array_index(leaf, target, path)
            target[index] = self._coerce_leaf(decl, rest, value, path)
        elif isinstance(target, dict):
            if leaf not in target:
                raise ContainerError(
                    "path %r: structure has no member %r" % (path, leaf)
                )
            target[leaf] = self._coerce_leaf(decl, rest, value, path)
        else:
            raise ContainerError("path %r does not address a member" % path)

    def resolver(self, path: str) -> Any:
        """Resolver for :meth:`Condition.evaluate`; None when unknown.

        A whole member is read from the value dict as stored, without
        :meth:`get`'s copy: a condition only reads it."""
        if "." not in path:
            return self._values.get(path)
        try:
            return self.get(path)
        except ContainerError:
            return None

    @property
    def return_code(self) -> int:
        return int(self._values.get(RETURN_CODE, 0))

    @return_code.setter
    def return_code(self, value: int) -> None:
        if RETURN_CODE not in self._decls:
            raise ContainerError("input containers carry no return code")
        self._values[RETURN_CODE] = int(value)

    def members(self) -> Iterator[str]:
        return iter(self._decls)

    def declaration(self, name: str) -> VariableDecl:
        try:
            return self._decls[name]
        except KeyError:
            raise ContainerError("container has no member %r" % name) from None

    # -- bulk ----------------------------------------------------------

    def receive(self, source: "Container", flow) -> None:
        """Run a compiled data flow (:class:`repro.wfms.plan.DataFlow`)
        from ``source`` into self: same-type flat pairs copy the value,
        widening pairs coerce it, and every other pair (structure, array
        or dotted path) is ``set(to, source.get(from))``."""
        values = self._values
        source_values = source._values
        for from_name, to_name in flow.copies:
            values[to_name] = source_values[from_name]
        for from_name, to_name, coerce in flow.converts:
            values[to_name] = coerce(source_values[from_name])
        for from_path, to_path in flow.paths:
            self.set(to_path, source.get(from_path))

    def update_from(
        self, source: "Container", mappings: Iterable[tuple[str, str]]
    ) -> None:
        """Apply a data connector's mappings from ``source`` into self."""
        for from_path, to_path in mappings:
            self.set(to_path, source.get(from_path))

    def to_dict(self) -> dict[str, Any]:
        """JSON-able snapshot of all member values: a plain dict copy
        when every member is scalar (scalars are immutable), a deep
        copy otherwise."""
        if self._flat:
            return dict(self._values)
        return copy.deepcopy(self._values)

    def assign(self, values: dict[str, Any]) -> None:
        """Write each declared member of ``values`` through :meth:`set`
        (type-checked); undeclared names are ignored, as in
        :meth:`load_dict`.  This is how values from outside the engine
        (start inputs, forced outputs) enter a container."""
        for name, value in values.items():
            if name in self._decls:
                self.set(name, value)

    def load_dict(self, values: dict[str, Any]) -> None:
        """Restore a snapshot produced by :meth:`to_dict`, unchecked:
        the snapshot was taken from a container that checked every
        write."""
        for name, value in values.items():
            if name in self._decls:
                self._values[name] = copy.deepcopy(value)
                if self._flat and isinstance(value, (dict, list)):
                    self._flat = False

    def copy(self) -> "Container":
        clone = Container((), self._types, output=False)
        clone._decls = dict(self._decls)
        clone._values = copy.deepcopy(self._values)
        clone._output = self._output
        clone._flat = not any(
            isinstance(value, (dict, list)) for value in clone._values.values()
        )
        return clone

    # -- internals -----------------------------------------------------

    def _coerce(self, decl: VariableDecl, value: Any, path: str) -> Any:
        if decl.is_array:
            if not isinstance(value, list) or len(value) != decl.array_size:
                raise ContainerError(
                    "path %r expects a list of length %d" % (path, decl.array_size)
                )
            element = VariableDecl(decl.name, decl.type)
            return [self._coerce(element, item, path) for item in value]
        if decl.is_structure:
            structure = self._types.get(str(decl.type))
            if not isinstance(value, dict):
                raise ContainerError(
                    "path %r expects a structure %s" % (path, decl.type)
                )
            result = self._types.default_value(
                VariableDecl(decl.name, decl.type)
            )
            for key, item in value.items():
                member = structure.member(key)
                result[key] = self._coerce(member, item, "%s.%s" % (path, key))
            return result
        assert isinstance(decl.type, DataType)
        return decl.type.coerce(value)

    def _coerce_leaf(
        self, root_decl: VariableDecl, rest: list[str], value: Any, path: str
    ) -> Any:
        decl = self._leaf_decl(root_decl, rest)
        if decl is None:
            # Descending through arrays of scalars; coerce by element type.
            return value
        return self._coerce(decl, value, path)

    def _leaf_decl(
        self, decl: VariableDecl, rest: list[str]
    ) -> VariableDecl | None:
        current: VariableDecl | None = decl
        for part in rest:
            if current is None:
                return None
            if part.isdigit():
                current = VariableDecl(current.name, current.type)
                continue
            if current.is_structure:
                structure = self._types.get(str(current.type))
                current = structure.member(part)
            else:
                return None
        return current


def _split(path: str) -> tuple[str, list[str]]:
    if not path:
        raise ContainerError("empty container path")
    parts = path.split(".")
    return parts[0], parts[1:]


def _descend(value: Any, part: str, path: str) -> Any:
    if isinstance(value, list):
        index = _array_index(part, value, path)
        return value[index]
    if isinstance(value, dict):
        if part not in value:
            raise ContainerError(
                "path %r: structure has no member %r" % (path, part)
            )
        return value[part]
    raise ContainerError("path %r descends into a scalar" % path)


def _array_index(part: str, array: list[Any], path: str) -> int:
    if not part.isdigit():
        raise ContainerError(
            "path %r: array index %r is not a number" % (path, part)
        )
    index = int(part)
    if index >= len(array):
        raise ContainerError(
            "path %r: index %d out of bounds (size %d)"
            % (path, index, len(array))
        )
    return index
