"""Checkpoint snapshots of navigator state.

A :class:`Checkpoint` is a point-in-time, JSON-serializable capture of
everything a navigator needs to resume live instances without
replaying the journal prefix it covers: the instances themselves
(activity states, attempts, containers, connector evaluations), the
instance-id sequence counter, the logical clock, the audit slice of
the live instances, and the set of registered definition
name+version pairs the instances were started against.  The
``offset`` names the first journal record *not* covered — recovery
restores the snapshot and replays only the suffix from ``offset`` on
(:func:`repro.wfms.recovery.replay`).

What is deliberately **not** captured: retry counters, timeout start
times and backoff due-times.  Those are volatile in the base system
too — a crash plus full-journal replay resets them (failed invocations
are never journaled) — so restoring them would make checkpointed
recovery *diverge* from the full-replay semantics it must reproduce.

Durability protocol (write): serialize, then
:func:`repro.store.atomic.atomic_write` — a crash at any point leaves
either the old complete file or the new complete file visible.  Each
file carries a format version and a SHA-256 checksum over its canonical state JSON;
:func:`load_checkpoint` returns ``None`` for anything torn, truncated
or tampered, and the store falls back to the previous snapshot (longer
replay, never wrong state).
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Any

from repro.errors import RecoveryError
from repro.store.atomic import atomic_write
from repro.wfms.instance import ActivityState, ProcessInstance, ProcessState

FORMAT_VERSION = 1


def _checksum(state: dict[str, Any]) -> str:
    canonical = json.dumps(state, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# capture
# ----------------------------------------------------------------------


def _activity_state(ai) -> dict[str, Any]:
    return {
        "state": ai.state.value,
        "dead": ai.dead,
        "attempt": ai.attempt,
        "forced": ai.forced,
        "claimed_by": ai.claimed_by,
        "child_instance": ai.child_instance,
        "incoming": dict(ai.incoming),
        "output": None if ai.output is None else ai.output.to_dict(),
    }


def _instance_state(instance: ProcessInstance) -> dict[str, Any]:
    return {
        "instance": instance.instance_id,
        "definition": instance.definition.name,
        "version": instance.definition.version,
        "state": instance.state.value,
        "starter": instance.starter,
        "parent_instance": instance.parent_instance,
        "parent_activity": instance.parent_activity,
        "input": instance.input.to_dict(),
        "output": instance.output.to_dict(),
        "activities": {
            name: _activity_state(ai)
            for name, ai in instance.activities.items()
        },
    }


def capture_state(navigator, offset: int) -> dict[str, Any]:
    """Serialize the navigator's live state as of journal ``offset``.

    ``navigator._instances`` is insertion-ordered with parents created
    before their block/subprocess children, and the capture preserves
    that order — restore relies on it to resolve each child's
    definition through its already-restored parent.
    """
    registry = navigator._definitions
    definitions = [
        [name, version]
        for name in registry.names()
        for version in registry.versions(name)
    ]
    instance_ids = list(navigator._instances)
    return {
        "offset": int(offset),
        "clock": navigator.clock,
        "sequence": navigator._sequence,
        "definitions": definitions,
        "instances": [
            _instance_state(instance)
            for instance in navigator._instances.values()
        ],
        "audit": navigator._audit.export_instances(instance_ids),
        "audit_next": navigator._audit.next_sequence,
    }


# ----------------------------------------------------------------------
# restore
# ----------------------------------------------------------------------


def _resolve_definition(navigator, saved: dict[str, Any]):
    """The ProcessDefinition a saved instance was running.

    Root and subprocess instances resolve through the registry (name +
    pinned version).  *Block* children are special: their definition is
    embedded in the parent's activity, never registered — so it is
    looked up on the already-restored parent instance, exactly where
    ``_start_child`` found it.
    """
    from repro.errors import DefinitionError
    from repro.wfms.model import ActivityKind

    parent_id = saved.get("parent_instance", "")
    if parent_id:
        parent = navigator._instances.get(parent_id)
        if parent is None:
            raise RecoveryError(
                "checkpoint lists child %s before its parent %s"
                % (saved["instance"], parent_id)
            )
        activity = parent.activity(saved["parent_activity"]).activity
        if activity.kind is ActivityKind.BLOCK:
            assert activity.block is not None
            return activity.block
    try:
        return navigator._definitions.get(
            saved["definition"], saved.get("version")
        )
    except DefinitionError as exc:
        raise RecoveryError(
            "checkpoint instance %s needs unregistered definition %s@%s"
            % (saved["instance"], saved["definition"], saved.get("version"))
        ) from exc


def _restore_instance(navigator, saved: dict[str, Any]) -> ProcessInstance:
    definition = _resolve_definition(navigator, saved)
    plan = navigator._definitions.plan_for(definition)
    instance = ProcessInstance(
        saved["instance"],
        definition,
        starter=saved.get("starter", ""),
        parent_instance=saved.get("parent_instance", ""),
        parent_activity=saved.get("parent_activity", ""),
        plan=plan,
    )
    instance.input.load_dict(saved["input"])
    instance.output.load_dict(saved["output"])
    for name, data in saved["activities"].items():
        ai = instance.activities[name]
        ai.dead = bool(data["dead"])
        ai.attempt = int(data["attempt"])
        ai.forced = bool(data["forced"])
        ai.claimed_by = data.get("claimed_by", "")
        ai.child_instance = data.get("child_instance", "")
        ai.incoming = dict(data["incoming"])
        if data["output"] is not None:
            ai.output = plan.output_container(name)
            ai.output.load_dict(data["output"])
        # State last: the setter maintains the owner's live-activity
        # counter, so every other field must already be in place.
        ai.state = ActivityState(data["state"])
    instance.state = ProcessState(saved["state"])
    return instance


def restore_state(navigator, state: dict[str, Any]) -> int:
    """Rebuild navigator state from a captured snapshot; returns the
    number of instances restored.

    The navigator must be freshly built (no instances).  Definitions
    the snapshot's instances reference must already be registered —
    the same contract full replay has for ``process_started`` records.
    """
    if navigator._instances:
        raise RecoveryError(
            "restore_state needs a fresh navigator (it has %d instances)"
            % len(navigator._instances)
        )
    for saved in state["instances"]:
        instance = _restore_instance(navigator, saved)
        navigator._instances[instance.instance_id] = instance
        navigator._index_instance(instance)
        if (
            navigator._obs_on
            and instance.state is not ProcessState.FINISHED
        ):
            navigator._g_running.inc()
    navigator.set_sequence(int(state["sequence"]))
    navigator.clock = float(state["clock"])
    navigator._audit.restore(state["audit"], int(state["audit_next"]))
    return len(state["instances"])


# ----------------------------------------------------------------------
# durable files
# ----------------------------------------------------------------------


def write_checkpoint(
    path: str | os.PathLike[str],
    state: dict[str, Any],
    *,
    injector=None,
) -> None:
    """Atomically write ``state`` as a checkpoint file at ``path``.

    The ``snapshot.write`` fault-injection site tears the write: half
    the document lands on the *final* path (simulating a crash after a
    non-atomic writer got part way) before the injected failure
    surfaces — which is exactly what the checksum must catch on load.
    """
    path = os.fspath(path)
    document = {
        "format": FORMAT_VERSION,
        "checksum": _checksum(state),
        "state": state,
    }
    data = json.dumps(document, sort_keys=True)
    if injector is not None:
        try:
            injector.on_store("snapshot.write", os.path.basename(path))
        except Exception:
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(data[: len(data) // 2])
                handle.flush()
                os.fsync(handle.fileno())
            raise
    atomic_write(path, data + "\n")


def load_checkpoint(path: str | os.PathLike[str]) -> dict[str, Any] | None:
    """The state dict of a checkpoint file, or ``None`` when the file
    is missing, torn, truncated, of an unknown format version, or its
    checksum does not match — anything but a verified-complete
    snapshot makes recovery fall back to an older one."""
    path = os.fspath(path)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    except (OSError, ValueError):
        return None
    if not isinstance(document, dict):
        return None
    if document.get("format") != FORMAT_VERSION:
        return None
    state = document.get("state")
    if not isinstance(state, dict):
        return None
    if document.get("checksum") != _checksum(state):
        return None
    return state


class Checkpoint:
    """One durable snapshot: captured state plus the file it lives in."""

    def __init__(self, state: dict[str, Any], path: str | None = None):
        self.state = state
        self.path = path

    @property
    def offset(self) -> int:
        """Index of the first journal record *not* covered."""
        return int(self.state["offset"])

    @property
    def sequence(self) -> int:
        return int(self.state["sequence"])

    @property
    def clock(self) -> float:
        return float(self.state["clock"])

    @property
    def instance_count(self) -> int:
        return len(self.state["instances"])

    @classmethod
    def load(cls, path: str | os.PathLike[str]) -> "Checkpoint | None":
        state = load_checkpoint(path)
        if state is None:
            return None
        return cls(state, os.fspath(path))

    def __repr__(self) -> str:
        return "Checkpoint(offset=%d, instances=%d)" % (
            self.offset,
            self.instance_count,
        )
