"""Durable state store: checkpoints, segmented journal, archive.

The paper's forward-recovery story (§3.3) resumes a process "from the
point where the failure occurred" by replaying recorded per-activity
state.  The base implementation replays the *entire* journal on every
recovery, so restart time and disk footprint grow without bound.  This
package bounds both with the classic checkpoint-plus-log pattern:

* :mod:`repro.store.snapshot` — atomic, checksummed point-in-time
  captures of navigator state, each covering a journal offset;
* :mod:`repro.store.segments` — the journal as a directory of sealed
  segment files plus a manifest, with crash-safe compaction that drops
  history already covered by a durable checkpoint;
* :mod:`repro.store.archive` — finished instances move out of live
  memory into an append-only, queryable archive (the paper notes
  FlowMark deletes finished processes and keeps the audit trail as
  history);
* :mod:`repro.store.checkpointed` — :class:`CheckpointedLog`, a
  segmented journal plus the snapshot files that cover it, run by one
  checkpoint/compact protocol; the engine store and the broker's bus
  log (:mod:`repro.net.buslog`) are both instances of it;
* :mod:`repro.store.durable` — :class:`DurableStore` adds the engine's
  side (what a snapshot holds, when one is due, the archive) and plugs
  into ``Engine(store=...)``.

Recovery becomes O(delta since last checkpoint) instead of
O(full history); :func:`repro.wfms.recovery.replay` holds the
restore-then-replay-suffix logic and the argument for why it is
equivalent to a full replay.
"""

from repro.store.archive import InstanceArchive
from repro.store.checkpointed import CheckpointedLog
from repro.store.durable import DurableStore
from repro.store.segments import SegmentedJournal
from repro.store.snapshot import (
    Checkpoint,
    capture_state,
    load_checkpoint,
    restore_state,
    write_checkpoint,
)

__all__ = [
    "Checkpoint",
    "CheckpointedLog",
    "DurableStore",
    "InstanceArchive",
    "SegmentedJournal",
    "capture_state",
    "load_checkpoint",
    "restore_state",
    "write_checkpoint",
]
