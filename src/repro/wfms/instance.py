"""Run-time instances of processes and activities.

State machine (§3.2): an activity is *ready*, *running*, *finished*
(execution completed) or *terminated* (execution completed and the exit
condition held).  We add *waiting* for activities whose start condition
is not yet decided, and flag dead-path terminations with ``dead`` —
the paper folds those into "terminated" but the distinction is what the
experiments assert on.
"""

from __future__ import annotations

from enum import Enum
from typing import TYPE_CHECKING

from repro.errors import NavigationError
from repro.wfms.containers import Container
from repro.wfms.model import Activity, ProcessDefinition, StartCondition

if TYPE_CHECKING:
    from repro.wfms.plan import NavigationPlan


class ActivityState(Enum):
    WAITING = "waiting"
    READY = "ready"
    RUNNING = "running"
    FINISHED = "finished"
    TERMINATED = "terminated"


class ProcessState(Enum):
    RUNNING = "running"
    SUSPENDED = "suspended"
    FINISHED = "finished"


def connector_key(source: str, target: str) -> str:
    return "%s->%s" % (source, target)


class ActivityInstance:
    """Run-time state of one activity within one process instance.

    ``state`` is a property: transitions into/out of ``TERMINATED``
    maintain the owning :class:`ProcessInstance`'s live-activity
    counter, which makes :meth:`ProcessInstance.all_terminated` O(1)
    instead of an O(activities) scan per termination.
    """

    __slots__ = (
        "activity",
        "_state",
        "dead",
        "attempt",
        "input",
        "output",
        "incoming",
        "claimed_by",
        "forced",
        "child_instance",
        "owner",
    )

    def __init__(
        self,
        activity: Activity,
        owner: "ProcessInstance | None" = None,
    ):
        self.activity = activity
        self._state = ActivityState.WAITING
        self.dead = False
        self.attempt = 0              # how many times execution started
        self.input: Container | None = None
        self.output: Container | None = None
        #: connector key -> evaluated truth value (None = not yet evaluated)
        self.incoming: dict[str, bool | None] = {}
        self.claimed_by = ""
        self.forced = False
        #: instance id of the currently running child (BLOCK/PROCESS kinds)
        self.child_instance = ""
        self.owner = owner

    @property
    def state(self) -> ActivityState:
        return self._state

    @state.setter
    def state(self, value: ActivityState) -> None:
        old = self._state
        if value is old:
            return
        self._state = value
        owner = self.owner
        if owner is not None:
            if value is ActivityState.TERMINATED:
                owner._live -= 1
            elif old is ActivityState.TERMINATED:
                owner._live += 1

    @property
    def name(self) -> str:
        return self.activity.name

    @property
    def executed(self) -> bool:
        """Terminated by actually running (not by dead-path)."""
        return self.state is ActivityState.TERMINATED and not self.dead

    def all_incoming_evaluated(self) -> bool:
        return all(v is not None for v in self.incoming.values())

    def any_incoming_true(self) -> bool:
        return any(v is True for v in self.incoming.values())

    def all_incoming_true(self) -> bool:
        return all(v is True for v in self.incoming.values())

    def start_condition_met(self) -> bool:
        if self.activity.start_condition is StartCondition.ANY:
            return self.any_incoming_true()
        return self.all_incoming_evaluated() and self.all_incoming_true()

    def start_condition_dead(self) -> bool:
        """True when the start condition can never become true."""
        if self.activity.start_condition is StartCondition.ANY:
            return self.all_incoming_evaluated() and not self.any_incoming_true()
        return any(v is False for v in self.incoming.values())


class ProcessInstance:
    """Run-time state of one process execution."""

    def __init__(
        self,
        instance_id: str,
        definition: ProcessDefinition,
        *,
        starter: str = "",
        parent_instance: str = "",
        parent_activity: str = "",
        plan: "NavigationPlan | None" = None,
        input_container: Container | None = None,
    ):
        self.instance_id = instance_id
        self.definition = definition
        self.state = ProcessState.RUNNING
        self.starter = starter
        self.parent_instance = parent_instance
        self.parent_activity = parent_activity
        #: compiled navigation plan (set by the navigator; direct
        #: constructions — unit tests — carry None and fall back to
        #: definition queries)
        self.plan = plan
        self.activities: dict[str, ActivityInstance] = {}
        #: count of activities not yet TERMINATED, maintained by the
        #: ActivityInstance.state setter
        self._live = len(definition.activities)
        if plan is not None:
            #: ``input_container``: one the navigator already filled
            self.input = (
                input_container
                if input_container is not None
                else plan.process_input_container()
            )
            self.output = plan.process_output_container()
            incoming_keys = plan.incoming_keys
            for name, activity in definition.activities.items():
                ai = ActivityInstance(activity, owner=self)
                ai.incoming = dict.fromkeys(incoming_keys[name])
                self.activities[name] = ai
        else:
            self.input = Container(definition.input_spec, definition.types)
            # Process output containers carry a return code so blocks can
            # expose one to the enclosing level (as Figure 2's RC_FB does).
            self.output = Container(
                definition.output_spec, definition.types, output=True
            )
            for name, activity in definition.activities.items():
                ai = ActivityInstance(activity, owner=self)
                for connector in definition.incoming(name):
                    ai.incoming[
                        connector_key(connector.source, connector.target)
                    ] = None
                self.activities[name] = ai

    def activity(self, name: str) -> ActivityInstance:
        try:
            return self.activities[name]
        except KeyError:
            raise NavigationError(
                "instance %s has no activity %r" % (self.instance_id, name)
            ) from None

    @property
    def is_root(self) -> bool:
        return not self.parent_instance

    def all_terminated(self) -> bool:
        """O(1): the live counter is maintained on every activity state
        transition into/out of TERMINATED."""
        return self._live == 0

    def states(self) -> dict[str, str]:
        """activity -> state string (with dead-path marked)."""
        out: dict[str, str] = {}
        for name, ai in self.activities.items():
            out[name] = "dead" if ai.dead else ai.state.value
        return out

    def __repr__(self) -> str:
        return "ProcessInstance(%s, %s, %s)" % (
            self.instance_id,
            self.definition.name,
            self.state.value,
        )
