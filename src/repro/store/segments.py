"""The execution journal: numbered segment files under one manifest.

A :class:`SegmentedJournal` is an append-only record store whose
backing storage is a *directory*:

* ``segment-%08d.jsonl`` — one JSON record per line.  The highest-id
  segment is **active** (appended to, torn tail tolerated on load);
  all earlier segments are **sealed** by :meth:`rotate` (fsynced
  whole, so any decode error in one is corruption, never a clean
  crash).
* ``MANIFEST.json`` — the directory's source of truth: segment order,
  each sealed segment's record count and first global record index.
  The manifest is only ever replaced atomically (temp + rename +
  directory fsync) and *always last*: rotation and compaction first
  make the new segment files durable, then commit the manifest.  A
  crash between the two leaves the old manifest naming the old files
  — fully consistent — plus at most an orphan file the next
  compaction ignores.

Every record carries a **global index** (0-based append order across
the directory's lifetime).  Dense segments store indices implicitly
(``first`` + line number); a segment rewritten by :meth:`compact`
becomes *sparse* and stores ``{"i": index, "r": record}`` rows, since
compaction punches holes in the sequence.

*When* an appended record becomes durable is governed by the ``sync``
policy:

* ``"always"`` (default) — flush + fsync after every append.  This
  is the durability point the §3.3 forward-recovery guarantee needs:
  a crash never loses an appended record.
* ``"batch"`` — **group commit**: appends are buffered in memory and
  committed (written, flushed, fsynced) together once ``batch_size``
  records accumulate or ``batch_interval`` seconds pass since the
  first buffered record.  A crash loses at most the unflushed suffix;
  :meth:`flush` is the explicit durability barrier.
* ``"never"`` — records are handed to the OS on every append but never
  explicitly fsynced outside :meth:`flush`/:meth:`close`.

:meth:`records` always reflects every append regardless of policy —
it is volatile by definition.  A record is only added to memory
*after* its write (or buffering) succeeded, so a failing disk write
cannot leave memory claiming a record that was never durable, and a
closed journal refuses appends with :class:`~repro.errors.JournalError`.

A journal of a different domain is the same class with different
constructor data: ``record_types`` (the legal ``type`` values) and
``fault_scope`` (the injector site family — the engine journal
consults ``journal.append``/``journal.fsync``, the broker's bus log
``buslog.append``/``buslog.fsync``).

:meth:`compact` takes the latest durable checkpoint's covered offset:
sealed segments whose records all precede the offset are dropped
outright, and the single sealed segment straddling the offset is
rewritten keeping only records past the offset that belong to
unfinished (non-archived) instances.  The active segment is never
touched.
"""

from __future__ import annotations

import json
import os
import time
from bisect import bisect_left
from typing import Any, Iterable, Iterator

from repro.errors import JournalError, RecoveryError
from repro.obs import JournalSynced, resolve_observability
from repro.store.atomic import atomic_write
from repro.wfms.journal import RECORD_TYPES, read_json_lines, trim_torn_tail

MANIFEST_FORMAT = 1
MANIFEST_NAME = "MANIFEST.json"
SEGMENT_TEMPLATE = "segment-%08d.jsonl"
COMPACTED_TEMPLATE = "segment-%08d.c%d.jsonl"

#: Legal values for the ``sync`` policy.
SYNC_POLICIES = ("always", "batch", "never")


def _read_file(
    path: str, *, tolerate_torn_tail: bool
) -> Iterator[dict[str, Any]]:
    """The journal records of one dense segment file."""
    for lineno, record in read_json_lines(
        path, tolerate_torn_tail=tolerate_torn_tail
    ):
        if not isinstance(record, dict) or "type" not in record:
            raise RecoveryError(
                "%s:%d: malformed journal record" % (path, lineno)
            )
        yield record


class SegmentedJournal:
    """Journal over a directory of segments with a manifest.

    ``segment_max_records`` enables automatic :meth:`rotate` once the
    active segment reaches that many records (checkpointing also
    rotates, so a compaction boundary exists at every checkpoint).
    """

    def __init__(
        self,
        directory: str | os.PathLike[str],
        *,
        sync: str = "always",
        batch_size: int = 64,
        batch_interval: float = 0.05,
        segment_max_records: int | None = None,
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
        if segment_max_records is not None and segment_max_records < 1:
            raise ValueError("segment_max_records must be >= 1")
        self._sync = sync
        self._batch_size = batch_size
        self._batch_interval = batch_interval
        self._injector = injector
        self.record_types = frozenset(record_types)
        self.fault_scope = fault_scope
        self._directory = os.fspath(directory)
        self._segment_max_records = segment_max_records
        #: records in append order, and each one's global index
        #: (parallel lists; indices strictly increase, with holes
        #: after compaction).
        self._memory: list[dict[str, Any]] = []
        self._indices: list[int] = []
        self._next_index = 0
        #: global index at which :meth:`append` rotates, or None.
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
        os.makedirs(self._directory, exist_ok=True)
        #: manifest entries, oldest first; the last one is active.
        self._segments: list[dict[str, Any]] = []
        self._compactions = 0
        self._load()
        self._open_active()

    @property
    def sync(self) -> str:
        return self._sync

    # ------------------------------------------------------------------
    # append / durability points
    # ------------------------------------------------------------------

    def append(self, record: dict[str, Any]) -> None:
        if record.get("type") not in self.record_types:
            raise RecoveryError(
                "illegal journal record type %r" % record.get("type")
            )
        if self._file is None:
            raise JournalError(
                "journal %s is closed; the record was not appended"
                % self._directory
            )
        if self._injector is not None:
            # A failing disk surfaces before anything is written, so
            # neither file nor memory claims the record
            # (write-then-record stays honest under injection).
            self._injector.on_journal(
                "append", str(record.get("type")), self.fault_scope
            )
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
        # Write-then-record: memory only claims records whose file
        # write (or buffering) succeeded.
        self._memory.append(record)
        self._indices.append(self._next_index)
        self._next_index += 1
        if self._obs_on:
            self._c_appends.inc()
        if self._rotate_at is not None and self._next_index >= self._rotate_at:
            self.rotate()

    def _fsync(self, reason: str) -> None:
        """One durability point; the injector may turn it into a
        :class:`~repro.errors.JournalError` (disk failure)."""
        if self._injector is not None:
            self._injector.on_journal("fsync", reason, self.fault_scope)
        os.fsync(self._file.fileno())

    def _commit(self, reason: str = "flush") -> None:
        """Write the buffered suffix and make the active file durable."""
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
        """Release the active file *without* a final commit — used
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
        """Reopen the active segment after :meth:`close` (crash
        restart)."""
        if self._file is None:
            self._open_active()

    def __enter__(self) -> "SegmentedJournal":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    # ------------------------------------------------------------------
    # layout helpers
    # ------------------------------------------------------------------

    @property
    def directory(self) -> str:
        return self._directory

    @property
    def next_index(self) -> int:
        """Global index the next appended record will get — equally,
        the total number of records ever appended."""
        return self._next_index

    @property
    def segments_live(self) -> int:
        return len(self._segments)

    def _segment_path(self, entry: dict[str, Any]) -> str:
        return os.path.join(self._directory, entry["file"])

    def _manifest_path(self) -> str:
        return os.path.join(self._directory, MANIFEST_NAME)

    def _active_entry(self) -> dict[str, Any]:
        return self._segments[-1]

    def _active_file(self) -> str:
        return self._segment_path(self._active_entry())

    def _active_count(self) -> int:
        return self._next_index - self._active_entry()["first"]

    def manifest(self) -> dict[str, Any]:
        """A copy of the manifest document (inspection/tests)."""
        return {
            "format": MANIFEST_FORMAT,
            "compactions": self._compactions,
            "segments": [dict(entry) for entry in self._segments],
        }

    # ------------------------------------------------------------------
    # load / manifest commit
    # ------------------------------------------------------------------

    def _load(self) -> None:
        manifest_path = self._manifest_path()
        if not os.path.exists(manifest_path):
            self._segments = [
                {
                    "id": 0,
                    "file": SEGMENT_TEMPLATE % 0,
                    "first": 0,
                    "count": None,
                    "sparse": False,
                }
            ]
            self._write_manifest()
            return
        try:
            with open(manifest_path, "r", encoding="utf-8") as handle:
                document = json.load(handle)
        except ValueError as exc:
            raise RecoveryError(
                "%s: corrupt journal manifest (%s)" % (manifest_path, exc)
            ) from None
        if (
            not isinstance(document, dict)
            or document.get("format") != MANIFEST_FORMAT
            or not document.get("segments")
        ):
            raise RecoveryError(
                "%s: unrecognized journal manifest" % manifest_path
            )
        self._compactions = int(document.get("compactions", 0))
        self._segments = [dict(entry) for entry in document["segments"]]
        for entry in self._segments[:-1]:
            self._load_sealed(entry)
        self._load_active(self._segments[-1])

    def _load_sealed(self, entry: dict[str, Any]) -> None:
        path = self._segment_path(entry)
        if not os.path.exists(path):
            raise RecoveryError(
                "%s: sealed segment named by the manifest is missing" % path
            )
        count = 0
        if entry.get("sparse"):
            for lineno, row in read_json_lines(path, tolerate_torn_tail=False):
                if (
                    not isinstance(row, dict)
                    or not isinstance(row.get("i"), int)
                    or not isinstance(row.get("r"), dict)
                    or "type" not in row["r"]
                ):
                    raise RecoveryError(
                        "%s:%d: malformed sparse journal row" % (path, lineno)
                    )
                self._indices.append(row["i"])
                self._memory.append(row["r"])
                count += 1
        else:
            first = int(entry["first"])
            for record in _read_file(path, tolerate_torn_tail=False):
                self._indices.append(first + count)
                self._memory.append(record)
                count += 1
        if count != entry["count"]:
            raise RecoveryError(
                "%s: sealed segment holds %d records, manifest says %d"
                % (path, count, entry["count"])
            )

    def _load_active(self, entry: dict[str, Any]) -> None:
        path = self._segment_path(entry)
        first = int(entry["first"])
        count = 0
        # A crash between manifest commit and file creation leaves the
        # active file missing: that is an empty active segment.
        if os.path.exists(path):
            for record in _read_file(path, tolerate_torn_tail=True):
                self._indices.append(first + count)
                self._memory.append(record)
                count += 1
        self._next_index = first + count

    def _write_manifest(self) -> None:
        atomic_write(
            self._manifest_path(),
            json.dumps(self.manifest(), sort_keys=True) + "\n",
        )

    # ------------------------------------------------------------------
    # rotation
    # ------------------------------------------------------------------

    def _open_active(self) -> None:
        """Open the active segment for appending.  A torn tail (crash
        mid-append) is trimmed first so new records never concatenate
        onto it."""
        trim_torn_tail(self._active_file())
        self._file = open(self._active_file(), "a", encoding="utf-8")
        if self._segment_max_records is not None:
            self._rotate_at = (
                self._active_entry()["first"] + self._segment_max_records
            )

    def rotate(self) -> None:
        """Seal the active segment and open a fresh one.

        No-op on an empty active segment or a closed journal.  The
        sealed file is committed (flushed + fsynced) before the
        manifest names it sealed; a crash in between reloads it as a
        still-active segment, which is equivalent.
        """
        if self._file is None or self._active_count() == 0:
            return
        self._commit("rotate")
        self._file.close()
        self._file = None
        active = self._active_entry()
        active["count"] = self._active_count()
        next_id = active["id"] + 1
        self._segments.append(
            {
                "id": next_id,
                "file": SEGMENT_TEMPLATE % next_id,
                "first": self._next_index,
                "count": None,
                "sparse": False,
            }
        )
        self._write_manifest()
        self._open_active()

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------

    def suffix(self, offset: int) -> list[dict[str, Any]]:
        """Records with global index >= ``offset`` (the replay suffix
        past a checkpoint)."""
        return self._memory[bisect_left(self._indices, offset) :]

    def indices(self) -> list[int]:
        return list(self._indices)

    # ------------------------------------------------------------------
    # compaction
    # ------------------------------------------------------------------

    def compact(
        self,
        offset: int,
        *,
        drop_instances: Iterable[str] = (),
    ) -> dict[str, Any]:
        """Drop journal history covered by a durable checkpoint.

        ``offset`` is the checkpoint's covered offset — every record
        with a smaller index is reconstructible from the snapshot.
        Sealed segments wholly below the offset are dropped; the one
        sealed segment straddling it is rewritten (sparse) keeping
        only records past the offset whose instance is not in
        ``drop_instances`` (the archive's finished set — the replay
        cursor skips their records anyway).

        Crash-safety: the rewritten file is written and fsynced under
        a fresh generation name, the ``compact`` injector site is
        consulted, and only then is the manifest committed.  Any crash
        before the commit leaves the previous manifest and files fully
        intact (plus an ignored orphan file); the old files are
        unlinked best-effort only after the commit.
        """
        dropped = set(drop_instances)
        removed: list[dict[str, Any]] = []
        survivors = list(self._segments)
        while (
            len(survivors) > 1
            and survivors[0]["count"] is not None
            and self._segment_end(survivors[0]) <= offset
        ):
            removed.append(survivors.pop(0))
        head = survivors[0]
        rewrite = (
            head["count"] is not None
            and head["first"] < offset < self._segment_end(head)
        )
        stats = {
            "offset": int(offset),
            "segments_dropped": len(removed),
            "records_dropped": sum(e["count"] for e in removed),
            "rewritten": rewrite,
        }
        new_entry = None
        kept_indices: set[int] = set()
        rewrite_range: tuple[int, int] | None = None
        if rewrite:
            rewrite_range = (int(head["first"]), self._segment_end(head))
            new_entry, rows = self._rewrite_segment(head, offset, dropped)
            kept_indices = {index for index, __ in rows}
            stats["records_dropped"] += head["count"] - len(rows)
        if self._injector is not None:
            # An injected compaction failure models a crash after the
            # rewrite but before the manifest commit.
            self._injector.on_store(
                "compact", os.path.basename(self._directory)
            )
        if not removed and not rewrite:
            stats["segments_live"] = len(self._segments)
            return stats
        old_head_file = head["file"] if rewrite else None
        if rewrite:
            if new_entry is None:
                # Nothing in the straddler survived: the segment goes
                # away entirely rather than becoming an empty file.
                survivors.pop(0)
            else:
                survivors[0] = new_entry
        self._segments = survivors
        self._compactions += 1
        self._write_manifest()
        for entry in removed:
            self._unlink_quiet(self._segment_path(entry))
        if old_head_file is not None:
            self._unlink_quiet(os.path.join(self._directory, old_head_file))
        # Mirror the on-disk drop in the parallel memory lists, so
        # resident size is bounded by live history too.
        floor = int(self._segments[0]["first"])
        indices: list[int] = []
        memory: list[dict[str, Any]] = []
        for index, record in zip(self._indices, self._memory):
            if index < floor:
                continue
            if (
                rewrite_range is not None
                and rewrite_range[0] <= index < rewrite_range[1]
                and index not in kept_indices
            ):
                continue
            indices.append(index)
            memory.append(record)
        self._indices = indices
        self._memory = memory
        stats["segments_live"] = len(self._segments)
        return stats

    @staticmethod
    def _segment_end(entry: dict[str, Any]) -> int:
        """One past the highest global index a sealed segment may hold."""
        if entry.get("sparse"):
            return int(entry["last"]) + 1
        return int(entry["first"]) + int(entry["count"])

    def _rewrite_segment(
        self, entry: dict[str, Any], offset: int, dropped: set[str]
    ) -> tuple[dict[str, Any] | None, list[tuple[int, dict[str, Any]]]]:
        """Write the straddling segment's surviving rows to a fresh
        sparse file; returns (new manifest entry or None, kept rows).
        No file is written when nothing survives."""
        lo = bisect_left(self._indices, entry["first"])
        hi = bisect_left(self._indices, self._segment_end(entry))
        rows = [
            (index, record)
            for index, record in zip(
                self._indices[lo:hi], self._memory[lo:hi]
            )
            if index >= offset and record.get("instance") not in dropped
        ]
        if not rows:
            return None, rows
        filename = COMPACTED_TEMPLATE % (entry["id"], self._compactions + 1)
        path = os.path.join(self._directory, filename)
        with open(path, "w", encoding="utf-8") as handle:
            for index, record in rows:
                handle.write(
                    json.dumps({"i": index, "r": record}, sort_keys=True)
                )
                handle.write("\n")
            handle.flush()
            os.fsync(handle.fileno())
        return (
            {
                "id": entry["id"],
                "file": filename,
                "first": rows[0][0],
                "last": rows[-1][0],
                "count": len(rows),
                "sparse": True,
            },
            rows,
        )

    @staticmethod
    def _unlink_quiet(path: str) -> None:
        try:
            os.unlink(path)
        except OSError:
            pass
