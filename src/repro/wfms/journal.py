"""Persistent execution journal.

"In most WFMSs the execution of a process is persistent in the sense
that forward recovery is always guaranteed" (§3.3).  The engine records
every *non-deterministic decision* — process starts with their inputs,
activity completions with their outputs — as JSON records.  Navigation
itself is deterministic, so replaying these records through the same
navigator reconstructs the exact pre-crash state; see
:mod:`repro.wfms.recovery`.
"""

from __future__ import annotations

import json
import os
import time
from typing import Any, Iterable, Iterator

from repro.errors import RecoveryError
from repro.obs import JournalSynced, resolve_observability

RECORD_TYPES = {
    "process_started",
    "activity_completed",
    "process_finished",
    "process_suspended",
    "process_resumed",
}

#: Legal values for the ``sync`` policy.
SYNC_POLICIES = ("always", "batch", "never")


class Journal:
    """Append-only record store, file-backed or in-memory.

    File backing writes one JSON object per line.  *When* a record
    becomes durable is governed by the ``sync`` policy:

    * ``"always"`` (default) — flush + fsync after every append.  This
      is the durability point the §3.3 forward-recovery guarantee
      needs: a crash never loses an appended record.
    * ``"batch"`` — **group commit**: appends are buffered in memory
      and committed (written, flushed, fsynced) together once
      ``batch_size`` records accumulate or ``batch_interval`` seconds
      pass since the first buffered record.  A crash loses at most the
      unflushed suffix; :meth:`flush` is the explicit durability
      barrier (called by ``Engine.crash()``/``close()`` and the
      recovery path).
    * ``"never"`` — records are handed to the OS on every append but
      never explicitly fsynced outside :meth:`flush`/:meth:`close`;
      fastest, with durability left to the operating system.

    In-memory state (:meth:`records`) always reflects every append
    regardless of policy — it is volatile by definition.  A record is
    only added to memory *after* the file write succeeded, so a failing
    disk write cannot leave memory claiming a record that was never
    durable.

    A journal of a different domain is the same class with different
    constructor data: ``record_types`` (the legal ``type`` values) and
    ``fault_scope`` (the injector site family — the engine journal
    consults ``journal.append``/``journal.fsync``, the broker's bus
    log ``buslog.append``/``buslog.fsync``).
    """

    def __init__(
        self,
        path: str | os.PathLike[str] | None = None,
        *,
        sync: str = "always",
        batch_size: int = 64,
        batch_interval: float = 0.05,
        obs=None,
        injector=None,
        record_types: Iterable[str] = RECORD_TYPES,
        fault_scope: str = "journal",
    ):
        if sync not in SYNC_POLICIES:
            raise ValueError(
                "unknown journal sync policy %r (choose from %s)"
                % (sync, ", ".join(SYNC_POLICIES))
            )
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self._path = os.fspath(path) if path is not None else None
        self._sync = sync
        self._batch_size = batch_size
        self._batch_interval = batch_interval
        self._injector = injector
        self.record_types = frozenset(record_types)
        self.fault_scope = fault_scope
        self._memory: list[dict[str, Any]] = []
        # SegmentedJournal's bookkeeping, plain data here so the hot
        # append path is one method for both classes: each memory row's
        # global index, the next one, and where the active segment ends.
        self._indices: list[int] | None = None
        self._next_index = 0
        self._rotate_at: int | None = None
        #: serialized-but-uncommitted lines (batch policy only)
        self._buffer: list[str] = []
        self._buffer_since: float | None = None
        self._file = None
        obs = resolve_observability(obs)
        self._obs_on = obs.enabled
        self._hooks = obs.hooks
        self._tracer = obs.tracer
        self._c_appends = obs.metrics.counter(
            "wfms_journal_appends_total", "Journal records appended"
        )
        self._c_commits = obs.metrics.counter(
            "wfms_journal_commits_total",
            "Durability points (write + fsync) by trigger",
            labels=("reason",),
        )
        self._h_commit_seconds = obs.metrics.histogram(
            "wfms_journal_commit_seconds", "Seconds per durability point"
        )
        self._g_unflushed = obs.metrics.gauge(
            "wfms_journal_unflushed", "Appended records not yet durable"
        )
        if self._path is not None:
            # Load any existing records, then open for appending (a
            # torn tail is trimmed so appends never concatenate to it).
            if os.path.exists(self._path):
                self._memory = list(_read_file(self._path))
                trim_torn_tail(self._path)
            self._file = open(self._path, "a", encoding="utf-8")

    @property
    def path(self) -> str | None:
        return self._path

    @property
    def sync(self) -> str:
        return self._sync

    def append(self, record: dict[str, Any]) -> None:
        if record.get("type") not in self.record_types:
            raise RecoveryError(
                "illegal journal record type %r" % record.get("type")
            )
        if self._injector is not None:
            # A failing disk surfaces before anything is written, so
            # neither file nor memory claims the record
            # (write-then-record stays honest under injection).
            self._injector.on_journal(
                "append", str(record.get("type")), self.fault_scope
            )
        if self._file is not None:
            line = json.dumps(record, sort_keys=True)
            if self._sync == "always":
                self._file.write(line)
                self._file.write("\n")
                if self._obs_on:
                    started = time.perf_counter()
                    self._file.flush()
                    self._fsync("append")
                    self._observe_commit(
                        1, "append", time.perf_counter() - started
                    )
                else:
                    self._file.flush()
                    self._fsync("append")
            elif self._sync == "never":
                self._file.write(line)
                self._file.write("\n")
            else:  # batch: group commit
                self._buffer.append(line)
                now = time.monotonic()
                if self._buffer_since is None:
                    self._buffer_since = now
                if len(self._buffer) >= self._batch_size:
                    self._commit("batch_full")
                elif now - self._buffer_since >= self._batch_interval:
                    self._commit("batch_interval")
                elif self._obs_on:
                    self._g_unflushed.set(len(self._buffer))
        # Write-then-append: memory only claims records whose file
        # write (or buffering) succeeded.
        self._memory.append(record)
        if self._obs_on:
            self._c_appends.inc()
        if self._indices is not None:
            self._indices.append(self._next_index)
            self._next_index += 1
            if (
                self._rotate_at is not None
                and self._next_index >= self._rotate_at
                and self._file is not None
            ):
                self.rotate()

    def _fsync(self, reason: str) -> None:
        """One durability point; the injector may turn it into a
        :class:`~repro.errors.JournalError` (disk failure)."""
        if self._injector is not None:
            self._injector.on_journal("fsync", reason, self.fault_scope)
        os.fsync(self._file.fileno())

    def _commit(self, reason: str = "flush") -> None:
        """Write the buffered suffix and make the file durable."""
        assert self._file is not None
        committed = len(self._buffer)
        if not self._obs_on:
            if self._buffer:
                self._file.write("\n".join(self._buffer))
                self._file.write("\n")
                self._buffer.clear()
                self._buffer_since = None
            self._file.flush()
            self._fsync(reason)
            return
        span = None
        if committed and self._tracer.enabled:
            span = self._tracer.start_span(
                "journal.commit",
                kind="journal",
                attributes={"records": committed, "reason": reason},
            )
        started = time.perf_counter()
        if self._buffer:
            self._file.write("\n".join(self._buffer))
            self._file.write("\n")
            self._buffer.clear()
            self._buffer_since = None
        self._file.flush()
        self._fsync(reason)
        elapsed = time.perf_counter() - started
        if span is not None:
            span.finish()
        self._observe_commit(committed, reason, elapsed)

    def _observe_commit(
        self, records: int, reason: str, seconds: float
    ) -> None:
        self._c_commits.labels(reason).inc()
        self._h_commit_seconds.observe(seconds)
        self._g_unflushed.set(len(self._buffer))
        hooks = self._hooks
        if hooks.wants(JournalSynced):
            hooks.publish(JournalSynced(records, reason, seconds))

    def flush(self) -> None:
        """Durability barrier: every appended record is on disk after
        this returns, whatever the sync policy."""
        if self._file is not None:
            self._commit("flush")

    def unflushed(self) -> int:
        """Number of appended records not yet committed to disk."""
        return len(self._buffer)

    def records(self) -> list[dict[str, Any]]:
        return list(self._memory)

    def __len__(self) -> int:
        return len(self._memory)

    def close(self) -> None:
        if self._file is not None:
            self._commit()
            self._file.close()
            self._file = None

    def abandon(self) -> None:
        """Release the backing file *without* a final commit — used
        when the disk itself is failing and a flush would only raise
        again.  The durable prefix on disk stays replayable; buffered
        records are lost (exactly the crash semantics of ``batch``)."""
        if self._file is not None:
            try:
                self._file.close()
            except OSError:
                pass
            self._file = None
        self._buffer.clear()
        self._buffer_since = None

    def reopen(self) -> None:
        """Reopen the backing file after :meth:`close` (crash restart)."""
        if self._path is not None and self._file is None:
            trim_torn_tail(self._path)
            self._file = open(self._path, "a", encoding="utf-8")

    def __enter__(self) -> "Journal":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


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


def _read_file(
    path: str, *, tolerate_torn_tail: bool = True
) -> Iterator[dict[str, Any]]:
    for lineno, record in read_json_lines(
        path, tolerate_torn_tail=tolerate_torn_tail
    ):
        if not isinstance(record, dict) or "type" not in record:
            raise RecoveryError(
                "%s:%d: malformed journal record" % (path, lineno)
            )
        yield record


def load_journal(path: str | os.PathLike[str]) -> list[dict[str, Any]]:
    """Read all durable records from a journal file."""
    return list(_read_file(os.fspath(path)))


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
