"""Organization model (§3.3).

"In a WFMS, the organization is described in terms of the roles,
hierarchical levels and persons associated with it.  A person can have
several roles ... and a role can be assigned to several persons."

This module provides that description plus *staff resolution*: given an
activity's :class:`~repro.wfms.model.StaffAssignment`, compute the set
of persons eligible to execute it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import DefinitionError, StaffResolutionError
from repro.wfms.model import StaffAssignment


@dataclass(frozen=True)
class Role:
    """A capability persons can hold (manager, programmer, ...)."""

    name: str
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise DefinitionError("role name must be non-empty")


@dataclass
class Person:
    """A user known to the WFMS."""

    user_id: str
    name: str = ""
    roles: set[str] = field(default_factory=set)
    level: int = 0
    manager: str = ""       # user_id of the manager (hierarchy edge)
    absent: bool = False    # absent persons are skipped by resolution

    def __post_init__(self) -> None:
        if not self.user_id:
            raise DefinitionError("user id must be non-empty")
        if not self.name:
            self.name = self.user_id


class Organization:
    """Roles, levels and persons, with staff-resolution queries."""

    def __init__(self) -> None:
        self._roles: dict[str, Role] = {}
        self._persons: dict[str, Person] = {}

    # -- population ----------------------------------------------------

    def add_role(self, name: str, description: str = "") -> Role:
        if name in self._roles:
            raise DefinitionError("role %r already exists" % name)
        role = Role(name, description)
        self._roles[name] = role
        return role

    def add_person(
        self,
        user_id: str,
        name: str = "",
        roles: tuple[str, ...] | set[str] = (),
        level: int = 0,
        manager: str = "",
    ) -> Person:
        if user_id in self._persons:
            raise DefinitionError("person %r already exists" % user_id)
        for role in roles:
            if role not in self._roles:
                raise DefinitionError(
                    "person %s: unknown role %r" % (user_id, role)
                )
        if manager and manager not in self._persons:
            raise DefinitionError(
                "person %s: unknown manager %r" % (user_id, manager)
            )
        person = Person(user_id, name, set(roles), level, manager)
        self._persons[user_id] = person
        return person

    def assign_role(self, user_id: str, role: str) -> None:
        if role not in self._roles:
            raise DefinitionError("unknown role %r" % role)
        self.person(user_id).roles.add(role)

    def set_absent(self, user_id: str, absent: bool = True) -> None:
        self.person(user_id).absent = absent

    # -- queries -------------------------------------------------------

    def person(self, user_id: str) -> Person:
        try:
            return self._persons[user_id]
        except KeyError:
            raise DefinitionError("unknown person %r" % user_id) from None

    def has_person(self, user_id: str) -> bool:
        return user_id in self._persons

    def has_role(self, name: str) -> bool:
        return name in self._roles

    def persons(self) -> list[Person]:
        return [self._persons[uid] for uid in sorted(self._persons)]

    def members_of(self, role: str) -> list[str]:
        """User ids of present persons holding ``role`` (sorted)."""
        if role not in self._roles:
            raise DefinitionError("unknown role %r" % role)
        return sorted(
            p.user_id
            for p in self._persons.values()
            if role in p.roles and not p.absent
        )

    def chain_of_command(self, user_id: str) -> list[str]:
        """Managers of ``user_id`` from immediate upwards."""
        chain: list[str] = []
        current = self.person(user_id).manager
        seen = {user_id}
        while current and current not in seen:
            chain.append(current)
            seen.add(current)
            current = self.person(current).manager
        return chain

    # -- staff resolution ------------------------------------------------

    def resolve(
        self, assignment: StaffAssignment, *, starter: str = ""
    ) -> list[str]:
        """Persons eligible to execute an activity (§3.3).

        Explicit users win over roles; with neither, the process starter
        is responsible.  Absent persons are excluded.  Raises
        :class:`StaffResolutionError` when nobody is eligible.
        """
        eligible: list[str] = []
        if assignment.users:
            eligible = [
                uid
                for uid in assignment.users
                if self.has_person(uid) and not self.person(uid).absent
            ]
        elif assignment.roles:
            seen: set[str] = set()
            for role in assignment.roles:
                for uid in self.members_of(role):
                    if uid not in seen:
                        seen.add(uid)
                        eligible.append(uid)
        elif starter:
            if self.has_person(starter) and not self.person(starter).absent:
                eligible = [starter]
        if not eligible:
            raise StaffResolutionError(
                "no eligible user (roles=%r users=%r starter=%r)"
                % (assignment.roles, assignment.users, starter)
            )
        return eligible


def demo_organization() -> Organization:
    """A small organization used by examples and tests."""
    org = Organization()
    org.add_role("manager", "approves and supervises")
    org.add_role("clerk", "performs routine steps")
    org.add_role("dba", "operates the databases")
    org.add_person("ada", "Ada", roles=("manager",), level=2)
    org.add_person("bob", "Bob", roles=("clerk",), level=1, manager="ada")
    org.add_person("cleo", "Cleo", roles=("clerk", "dba"), level=1, manager="ada")
    org.add_person("dan", "Dan", roles=("dba",), level=1, manager="ada")
    return org
