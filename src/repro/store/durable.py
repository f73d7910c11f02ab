"""The durable store: checkpoint policy + segmented journal + archive.

:class:`DurableStore` owns one on-disk directory::

    store/
      journal/                segment files + MANIFEST.json
      archive.jsonl           finished-instance archive (the index)
      archive-audit.jsonl     finished roots' audit slices (read on demand)
      checkpoint-<offset>.json  snapshots (latest ``keep_checkpoints``)

and plugs into ``Engine(store=...)``.  The engine drives it from three
places: :meth:`maybe_checkpoint` after each executed navigation step
(the ``checkpoint_every`` policy), :meth:`archive_finished` when a
root instance finishes, and ``Engine.recover()``, which hands
:meth:`latest_checkpoint`, the journal suffix past it and the archived
ids to :func:`repro.wfms.recovery.replay`.

The journal, the checkpoint files and the checkpoint protocol (flush →
rotate → atomic write → verify → retire → compact below the oldest
retained snapshot) are a :class:`~repro.store.checkpointed.
CheckpointedLog`, shared with the broker's bus log.  What this class
adds is the engine's side: *what* a snapshot holds
(:func:`~repro.store.snapshot.capture_state`), *when* one is due (the
``checkpoint_every`` policy), the finished-instance archive — the only
copy of what a snapshot omits once compaction retires the segments
behind it, and therefore fsynced *before* that snapshot is written —
and the ``wfms_store_*`` instruments.

A store instance is single-use: :meth:`attach` binds it to one
engine's obs/injector handles, mirroring how a fresh :class:`Engine`
is built per crash/recover cycle.
"""

from __future__ import annotations

import os
import time
from typing import Any

from repro.errors import WorkflowError
from repro.obs import resolve_observability
from repro.store.archive import InstanceArchive, build_archive_entry
from repro.store.checkpointed import CheckpointedLog
from repro.store.segments import SegmentedJournal
from repro.store.snapshot import Checkpoint, capture_state


class DurableStore:
    """Durability subsystem for one engine (see module docstring)."""

    def __init__(
        self,
        directory: str | os.PathLike[str],
        *,
        sync: str = "always",
        batch_size: int = 64,
        batch_interval: float = 0.05,
        checkpoint_every_records: int | None = None,
        checkpoint_interval: float | None = None,
        compact_on_checkpoint: bool = True,
        keep_checkpoints: int = 2,
        segment_max_records: int | None = None,
    ):
        if checkpoint_every_records is not None and checkpoint_every_records < 1:
            raise WorkflowError("checkpoint_every_records must be >= 1")
        if checkpoint_interval is not None and checkpoint_interval <= 0:
            raise WorkflowError("checkpoint_interval must be > 0")
        if keep_checkpoints < 1:
            raise WorkflowError("keep_checkpoints must be >= 1")
        self._directory = os.fspath(directory)
        self._sync = sync
        self._batch_size = batch_size
        self._batch_interval = batch_interval
        self._every_records = checkpoint_every_records
        self._interval = checkpoint_interval
        self._compact_on_checkpoint = compact_on_checkpoint
        self._keep_checkpoints = keep_checkpoints
        self._segment_max_records = segment_max_records
        self._log: CheckpointedLog | None = None
        self._archive: InstanceArchive | None = None
        #: offset covered by the last *verified* checkpoint this
        #: process wrote or recovered from, or None.
        self._last_offset: int | None = None
        self._last_ckpt_clock: float | None = None
        #: set by Engine.recover(): how the last recovery went.
        self.last_recovery: dict[str, Any] | None = None

    def checkpoint_every(
        self, n_records: int | None = None, *, interval: float | None = None
    ) -> "DurableStore":
        """Set (or replace) the automatic checkpoint policy: every
        ``n_records`` journal records and/or every ``interval`` logical
        seconds.  Fluent, so ``DurableStore(d).checkpoint_every(100)``
        reads as the engine-construction idiom."""
        if n_records is not None and n_records < 1:
            raise WorkflowError("checkpoint_every needs n_records >= 1")
        if interval is not None and interval <= 0:
            raise WorkflowError("checkpoint_every needs interval > 0")
        self._every_records = n_records
        self._interval = interval
        return self

    # ------------------------------------------------------------------
    # engine binding
    # ------------------------------------------------------------------

    def attach(self, *, obs=None, injector=None) -> None:
        """Open the on-disk structures and bind obs/injector handles.

        Once-only: a store instance belongs to exactly one engine —
        build a fresh :class:`DurableStore` over the same directory for
        the post-crash engine, the way chaos tests build fresh engines.
        """
        if self._log is not None:
            raise WorkflowError(
                "this DurableStore is already attached to an engine; "
                "build a fresh one over the same directory"
            )
        obs = resolve_observability(obs)
        self._obs_on = obs.enabled
        self._tracer = obs.tracer
        metrics = obs.metrics
        self._c_checkpoints = metrics.counter(
            "wfms_store_checkpoints_total", "Checkpoints written"
        )
        self._h_checkpoint_seconds = metrics.histogram(
            "wfms_store_checkpoint_seconds",
            "Wall-clock seconds per checkpoint (capture through compaction)",
        )
        self._c_compactions = metrics.counter(
            "wfms_store_compactions_total", "Journal compactions committed"
        )
        self._g_segments = metrics.gauge(
            "wfms_store_segments_live", "Journal segments on disk"
        )
        self._g_archive = metrics.gauge(
            "wfms_store_archive_size", "Archived instances (incl. children)"
        )
        self._log = CheckpointedLog(
            self._directory,
            segments_dirname="journal",
            checkpoint_prefix="checkpoint-",
            offset_digits=12,
            keep_checkpoints=self._keep_checkpoints,
            injector=injector,
            sync=self._sync,
            batch_size=self._batch_size,
            batch_interval=self._batch_interval,
            segment_max_records=self._segment_max_records,
            obs=obs,
        )
        self._archive = InstanceArchive(
            os.path.join(self._directory, "archive.jsonl"), sync=self._sync
        )
        latest, __ = self.latest_checkpoint()
        self._last_offset = latest.offset if latest is not None else None
        self._last_ckpt_clock = latest.clock if latest is not None else None
        if self._obs_on:
            self._g_segments.set(self.journal.segments_live)
            self._g_archive.set(self._archive.instance_count())

    def _require_attached(self) -> None:
        if self._log is None:
            raise WorkflowError(
                "DurableStore is not attached to an engine yet"
            )

    @property
    def directory(self) -> str:
        return self._directory

    @property
    def journal(self) -> SegmentedJournal:
        self._require_attached()
        return self._log.journal

    @property
    def archive(self) -> InstanceArchive:
        self._require_attached()
        return self._archive

    # ------------------------------------------------------------------
    # checkpoints
    # ------------------------------------------------------------------

    def checkpoint_files(self) -> list[str]:
        """Checkpoint file paths, oldest (lowest offset) first."""
        self._require_attached()
        log = self._log
        return [log.checkpoint_path(o) for o in log.checkpoint_offsets()]

    def latest_checkpoint(self) -> tuple[Checkpoint | None, int]:
        """Newest checkpoint that loads and verifies, plus how many
        newer files were skipped as torn/corrupt (the fallback count)."""
        self._require_attached()
        state, skipped = self._log.latest()
        if state is None:
            return None, skipped
        path = self._log.checkpoint_path(int(state["offset"]))
        return Checkpoint(state, path), skipped

    def maybe_checkpoint(self, navigator) -> "Checkpoint | None":
        """Write a checkpoint if the policy says one is due."""
        if self._every_records is None and self._interval is None:
            return None
        log = self._log
        if log is None:
            return None
        new_records = log.journal.next_index - (self._last_offset or 0)
        if new_records <= 0:
            return None
        due = (
            self._every_records is not None
            and new_records >= self._every_records
        )
        if not due and self._interval is not None:
            last_clock = self._last_ckpt_clock or 0.0
            due = navigator.clock - last_clock >= self._interval
        if not due:
            return None
        return self.checkpoint(navigator)

    def checkpoint(self, navigator) -> Checkpoint:
        """Write one checkpoint now (the :class:`CheckpointedLog`
        protocol, behind an archive barrier)."""
        self._require_attached()
        log = self._log
        journal = log.journal
        span = None
        if self._obs_on and self._tracer.enabled:
            span = self._tracer.start_span("store.checkpoint", kind="store")
        started = time.perf_counter()
        try:
            # The snapshot omits archived instances and compaction
            # drops their journal records, so their archive lines must
            # be on disk before the snapshot is.
            self._archive.flush()
            state = capture_state(navigator, journal.next_index)
            offset = log.checkpoint(
                state, compact=self._compact_on_checkpoint
            )
        finally:
            elapsed = time.perf_counter() - started
            if span is not None:
                span.set_attribute("offset", journal.next_index)
                span.finish()
            if self._obs_on:
                self._h_checkpoint_seconds.observe(elapsed)
        self._last_offset = offset
        self._last_ckpt_clock = navigator.clock
        if self._obs_on:
            self._c_checkpoints.inc()
            if self._compact_on_checkpoint:
                self._c_compactions.inc()
            self._g_segments.set(journal.segments_live)
        return Checkpoint(state, log.checkpoint_path(offset))

    # ------------------------------------------------------------------
    # compaction / archive
    # ------------------------------------------------------------------

    def compact(self) -> dict[str, Any]:
        """Drop journal history below the oldest retained checkpoint —
        what every checkpoint does online, on demand (operator CLI)."""
        self._require_attached()
        stats = self._log.compact()
        if self._obs_on:
            self._c_compactions.inc()
            self._g_segments.set(self.journal.segments_live)
        return stats

    def archive_finished(self, navigator, instance) -> None:
        """Move a finished root instance (and its subtree) from live
        memory into the archive."""
        self._require_attached()
        entry = build_archive_entry(navigator, instance)
        self._archive.add(entry)
        tree = list(entry["instances"])
        navigator.evict_instances(tree)
        for instance_id in tree:
            navigator._audit.prune_instance(instance_id)
        if self._obs_on:
            self._g_archive.set(self._archive.instance_count())

    # ------------------------------------------------------------------
    # status / lifecycle
    # ------------------------------------------------------------------

    def status(self, clock: float | None = None) -> dict[str, Any]:
        """Operator view (``Engine.monitor``/``store_status``, the
        monitor CLI's STORE line)."""
        self._require_attached()
        journal = self._log.journal
        covered = self._last_offset
        out = {
            "enabled": True,
            "directory": self._directory,
            "journal_records": journal.next_index,
            "segments_live": journal.segments_live,
            "archived_roots": len(self._archive),
            "archived_instances": self._archive.instance_count(),
            "checkpoints": len(self.checkpoint_files()),
            "last_checkpoint_offset": covered,
            "checkpoint_lag_records": (
                journal.next_index - covered if covered is not None else None
            ),
            "last_checkpoint_age_seconds": (
                clock - self._last_ckpt_clock
                if clock is not None and self._last_ckpt_clock is not None
                else None
            ),
        }
        if self.last_recovery is not None:
            out["last_recovery"] = dict(self.last_recovery)
        return out

    def flush(self) -> None:
        self._require_attached()
        self._log.journal.flush()
        self._archive.flush()

    def close(self) -> None:
        if self._log is not None:
            self._log.journal.close()
        if self._archive is not None:
            self._archive.close()

    def abandon(self) -> None:
        """Release file handles without final commits (failing disk)."""
        if self._log is not None:
            self._log.journal.abandon()
        if self._archive is not None:
            self._archive.abandon()

    def reopen(self) -> None:
        self._require_attached()
        self._log.journal.reopen()
        self._archive.reopen()

    def __repr__(self) -> str:
        return "DurableStore(%r, attached=%s)" % (
            self._directory,
            self._log is not None,
        )
