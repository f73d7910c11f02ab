"""A checkpointed log: one segmented journal plus the snapshots that
cover it.

The engine's :class:`~repro.store.durable.DurableStore` and the
broker's :class:`~repro.net.buslog.BusLog` recover the same way —
restore the newest snapshot that verifies, replay the journal suffix
past the offset it covers — and :class:`CheckpointedLog` is that
shared half: the journal directory, the checkpoint files next to it,
and the one checkpoint protocol (DESIGN.md §11):

1. ``journal.flush()`` — the covered offset is durable *before* a
   snapshot claims to cover it;
2. ``journal.rotate()`` — the offset becomes a segment boundary, so
   every compaction floor is one too and compaction only ever
   retires whole sealed segments;
3. atomic, checksummed write of the snapshot;
4. re-load and verify it — an unverifiable checkpoint raises and
   nothing below it is reclaimed;
5. retire snapshots beyond ``keep_checkpoints``;
6. compact the journal below the **oldest retained** checkpoint — not
   the newest, which the next crash may tear (or time corrupt): the
   snapshot recovery then falls back to needs every record from *its*
   offset on.

The state dict is the caller's; the log only adds its ``"offset"``
(the index of the first journal record *not* covered).
"""

from __future__ import annotations

import os
import re
from contextlib import suppress
from typing import Any

from repro.errors import RecoveryError
from repro.store.segments import SegmentedJournal
from repro.store.snapshot import load_checkpoint, write_checkpoint


class CheckpointedLog:
    """Journal directory + checkpoint files under one ``directory``.

    Checkpoint files are named ``<checkpoint_prefix><offset>.json``
    with the offset zero-padded to ``offset_digits``;
    ``journal_options`` go to the :class:`SegmentedJournal` in
    ``directory/segments_dirname``.
    """

    def __init__(
        self,
        directory: str,
        *,
        segments_dirname: str,
        checkpoint_prefix: str,
        offset_digits: int,
        keep_checkpoints: int,
        injector=None,
        **journal_options: Any,
    ):
        self.directory = directory
        self._template = "%s%%0%dd.json" % (checkpoint_prefix, offset_digits)
        self._pattern = re.compile(
            r"^%s(\d{%d})\.json$" % (re.escape(checkpoint_prefix), offset_digits)
        )
        self._keep_checkpoints = keep_checkpoints
        self._injector = injector
        os.makedirs(directory, exist_ok=True)
        self.journal = SegmentedJournal(
            os.path.join(directory, segments_dirname),
            injector=injector,
            **journal_options,
        )

    def set_injector(self, injector) -> None:
        """Swap the fault injector on the log and its journal."""
        self._injector = injector
        self.journal._injector = injector

    # -- checkpoint files ----------------------------------------------

    def checkpoint_path(self, offset: int) -> str:
        return os.path.join(self.directory, self._template % offset)

    def checkpoint_offsets(self) -> list[int]:
        """Covered offset of every checkpoint file, oldest first."""
        offsets = []
        for name in os.listdir(self.directory):
            matched = self._pattern.match(name)
            if matched:
                offsets.append(int(matched.group(1)))
        return sorted(offsets)

    def latest(self) -> tuple[dict[str, Any] | None, int]:
        """State of the newest checkpoint that loads and verifies, plus
        how many newer files were skipped as torn or corrupt (falling
        back costs replay time, never correctness)."""
        skipped = 0
        for offset in reversed(self.checkpoint_offsets()):
            state = load_checkpoint(self.checkpoint_path(offset))
            if state is not None:
                return state, skipped
            skipped += 1
        return None, skipped

    def suffix(self, offset: int) -> list[dict[str, Any]]:
        """Journal records not covered by a checkpoint at ``offset``."""
        return self.journal.suffix(offset)

    # -- the protocol --------------------------------------------------

    def checkpoint(
        self, state: dict[str, Any], *, compact: bool = True
    ) -> int:
        """Make ``state`` the newest durable checkpoint (module
        docstring, steps 1-6); returns the offset it covers."""
        journal = self.journal
        journal.flush()
        journal.rotate()
        offset = state["offset"] = journal.next_index
        path = self.checkpoint_path(offset)
        write_checkpoint(path, state, injector=self._injector)
        if load_checkpoint(path) is None:
            raise RecoveryError(
                "checkpoint %s failed post-write verification" % path
            )
        offsets = self.checkpoint_offsets()
        for retired in offsets[: -self._keep_checkpoints]:
            with suppress(OSError):
                os.unlink(self.checkpoint_path(retired))
        if compact:
            journal.compact(offsets[-self._keep_checkpoints :][0])
        return offset

    def compact(self) -> dict[str, Any]:
        """Compact outside a checkpoint (the operator CLI).  Refuses
        unless some checkpoint verifies: with none, recovery needs the
        journal from its start."""
        if self.latest()[0] is None:
            raise RecoveryError("no durable checkpoint to compact against")
        return self.journal.compact(self.checkpoint_offsets()[0])
