"""The execution journal's record vocabulary.

"In most WFMSs the execution of a process is persistent in the sense
that forward recovery is always guaranteed" (§3.3).  The engine records
every *non-deterministic decision* — process starts with their inputs,
activity completions with their outputs — as JSON records.  Navigation
itself is deterministic, so replaying these records through the same
navigator reconstructs the exact pre-crash state; see
:mod:`repro.wfms.recovery`.

This module holds what every reader and writer of those records
shares: the legal record types, the JSON-lines reader with its
torn-tail rule, and the :class:`ReplayCursor` recovery consumes.  The
journal itself — segment files, sync policies, group commit — is
:class:`repro.store.segments.SegmentedJournal`.
"""

from __future__ import annotations

import json
import os
from typing import Any, Iterable, Iterator

from repro.errors import RecoveryError

RECORD_TYPES = {
    "process_started",
    "activity_completed",
    "process_finished",
    "process_suspended",
    "process_resumed",
}


def read_json_lines(
    path: str, *, tolerate_torn_tail: bool = True
) -> Iterator[tuple[int, Any]]:
    """Yield ``(lineno, parsed_object)`` per non-empty JSON line.

    A decode error is only tolerated (the line is skipped) when it is
    the *last* non-empty line of the file and ``tolerate_torn_tail`` is
    true — that is the normal signature of a crash mid-append, and the
    decision on the torn line was never durable.  A decode error on any
    earlier line means durable records follow corrupt bytes: that is
    data loss, never a clean crash, and raises :class:`RecoveryError`.
    Sealed journal segments are read with ``tolerate_torn_tail=False``
    (they were fsynced whole, so even a torn tail is corruption).
    """
    with open(path, "r", encoding="utf-8") as handle:
        lines = handle.readlines()
    last_nonempty = 0
    for lineno, line in enumerate(lines, start=1):
        if line.strip():
            last_nonempty = lineno
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            parsed = json.loads(line)
        except json.JSONDecodeError:
            if tolerate_torn_tail and lineno == last_nonempty:
                continue
            raise RecoveryError(
                "%s:%d: corrupt journal record followed by durable data "
                "(only a torn final line of the active file is a clean "
                "crash signature)" % (path, lineno)
            ) from None
        yield lineno, parsed


def trim_torn_tail(path: str | os.PathLike[str]) -> bool:
    """Truncate a torn final line (crash mid-append) off ``path``.

    Opening a torn file in append mode would concatenate the next
    record onto the torn bytes, turning a clean crash signature into
    mid-file corruption on the *next* recovery — so every append-mode
    open of a tolerant-tail file trims first.  Returns True when
    something was trimmed.  Earlier corrupt lines are left alone (the
    reader raises on them; truncating would destroy evidence).
    """
    path = os.fspath(path)
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError:
        return False
    stripped = data.rstrip()
    if not stripped:
        return False
    start = stripped.rfind(b"\n") + 1
    try:
        json.loads(stripped[start:].decode("utf-8"))
        return False
    except (UnicodeDecodeError, ValueError):
        pass
    with open(path, "r+b") as handle:
        handle.truncate(start)
    return True


class ReplayCursor:
    """Recorded activity completions, consumed during recovery.

    Keyed by ``(instance_id, activity, attempt)`` so exit-condition
    loops replay each iteration's recorded output.

    ``archived`` (the durable-store recovery path) names instances
    whose final state already lives in the
    :class:`repro.store.archive.InstanceArchive`: every record of an
    archived instance is skipped outright, so finished-and-archived
    processes are never re-navigated during recovery.
    """

    def __init__(
        self,
        records: Iterable[dict[str, Any]],
        *,
        archived: "frozenset[str] | set[str]" = frozenset(),
    ):
        self._completions: dict[tuple[str, str, int], dict[str, Any]] = {}
        self.process_starts: list[dict[str, Any]] = []
        self.finished: set[str] = set()
        self.suspended: set[str] = set()
        #: instances that saw a ``process_resumed`` record — the
        #: checkpoint-restore path uses this to re-run instances that
        #: were suspended at snapshot time but resumed in the suffix.
        self.resumed: set[str] = set()
        for record in records:
            kind = record["type"]
            if archived and record.get("instance") in archived:
                continue
            if kind == "process_started":
                self.process_starts.append(record)
            elif kind == "activity_completed":
                key = (
                    record["instance"],
                    record["activity"],
                    int(record["attempt"]),
                )
                if key in self._completions:
                    raise RecoveryError(
                        "duplicate completion record for %s" % (key,)
                    )
                self._completions[key] = record
            elif kind == "process_finished":
                self.finished.add(record["instance"])
            elif kind == "process_suspended":
                self.suspended.add(record["instance"])
            elif kind == "process_resumed":
                self.suspended.discard(record["instance"])
                self.resumed.add(record["instance"])

    def take(
        self, instance_id: str, activity: str, attempt: int
    ) -> dict[str, Any] | None:
        """Pop the recorded completion for this execution, if any."""
        return self._completions.pop((instance_id, activity, attempt), None)

    def take_peek(self, instance_id: str, activity: str, attempt: int) -> bool:
        """Whether a completion record exists, without consuming it."""
        return (instance_id, activity, attempt) in self._completions

    def pending(self) -> int:
        return len(self._completions)
