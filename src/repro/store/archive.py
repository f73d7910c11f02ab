"""Completed-instance archive.

The paper (§3.3) notes FlowMark deletes finished processes and relies
on the audit trail for history.  :class:`InstanceArchive` is that
split made explicit: when a *root* process instance finishes, its
outcome — final containers, per-activity results, execution orders and
the audit slice of its whole subtree — is appended to durable files,
and the live navigator/audit memory drops the subtree.

Two append-only JSONL files hold one finished root each per line:

* ``archive.jsonl`` — the entry (format 2): everything but the audit
  slice, plus ``audit_ref = [byte_offset, byte_length]`` into
* ``archive-audit.jsonl`` — the sidecar, one ``{"root", "records"}``
  line per root.

:meth:`add` writes the slice line first, then the entry line, each
reaching the OS before the next (one extra ``write`` per root), so an
entry that survives a process crash has its slice too; under
``sync="always"`` each is fsynced in that order, and :meth:`flush`, the
checkpoint barrier, fsyncs the sidecar, then the archive.  Open parses
``archive.jsonl`` only and never reads the sidecar: it checks each
``audit_ref`` against the sidecar's length.  The first entry whose range ends past that length,
or a torn final line, starts a torn tail: it and every later line are
truncated off (they postdate the last barrier, so the journal still
holds their records and replay re-archives them — the append is
idempotent by root id), and the sidecar is truncated to the end of the
last kept range.  :meth:`audit` reads one root's slice on demand.

The in-memory index holds no entry.  It keeps one :class:`ArchiveRow`
per root — definition, finish time, return code, the root's state and
output, ``audit_ref`` and the byte range of the root's line in
``archive.jsonl`` — plus every archived id's root and each
definition's roots, so nothing in it grows with an entry's subtree,
orders or audit records.  :meth:`outcomes`, :meth:`roots` and the
counts answer from the rows, and :meth:`row` lets the engine answer a
root's state and output without a read.  :meth:`by_id`,
:meth:`by_definition`, :meth:`finished_between` and a format-1
:meth:`audit` read the entry's line through one read handle that stays
open (``os.pread``) and check that it is this root's; a line that is
not raises :class:`RecoveryError`.  Format-1 entries (a directory
written before the sidecar existed) keep their slice inline under
``"audit"``.
"""

from __future__ import annotations

import json
import os
from typing import Any, NamedTuple

from repro.errors import RecoveryError
from repro.wfms.journal import trim_torn_tail
from repro.wfms.model import ActivityKind

ENTRY_FORMAT = 2
#: The format whose entries carry their audit slice inline.
INLINE_FORMAT = 1


def _tree_ids(navigator, root_id: str) -> list[str]:
    """The root and every descendant instance id, in creation order.

    One pass over the navigator's creation-ordered instance table
    (parents always precede children) with a growing membership set —
    this also catches children of *earlier attempts* of a looping
    block activity, which ``ai.child_instance`` no longer points to.
    """
    members = {root_id}
    ordered = []
    for instance_id, instance in navigator._instances.items():
        if instance_id == root_id or instance.parent_instance in members:
            members.add(instance_id)
            ordered.append(instance_id)
    return ordered


def build_archive_entry(navigator, instance) -> dict[str, Any]:
    """The archive entry for a finished root instance (built while the
    subtree and its audit records are still in live memory), with its
    audit slice inline under ``"audit"`` — :meth:`InstanceArchive.add`
    moves the slice to the sidecar."""
    audit = navigator._audit
    tree = _tree_ids(navigator, instance.instance_id)
    instances: dict[str, Any] = {}
    for instance_id in tree:
        member = navigator._instances[instance_id]
        # Per-program invocation counts, so §3.3 accounting keeps
        # working after the live subtree is evicted.
        invocations: dict[str, int] = {}
        for ai in member.activities.values():
            if ai.activity.kind is ActivityKind.PROGRAM and ai.attempt:
                program = ai.activity.program
                invocations[program] = (
                    invocations.get(program, 0) + ai.attempt
                )
        instances[instance_id] = {
            "invocations": invocations,
            "definition": member.definition.name,
            "version": member.definition.version,
            "state": member.state.value,
            "parent_instance": member.parent_instance,
            "parent_activity": member.parent_activity,
            "rc": member.output.return_code,
            "output": member.output.to_dict(),
            "execution_order": audit.execution_order(instance_id),
            "order": navigator.deep_execution_order(member),
            "dead_activities": audit.dead_activities(instance_id),
        }
    return {
        "root": instance.instance_id,
        "definition": instance.definition.name,
        "version": instance.definition.version,
        "starter": instance.starter,
        "finished_at": navigator.clock,
        "rc": instance.output.return_code,
        "output": instance.output.to_dict(),
        "order": navigator.deep_execution_order(instance),
        "instances": instances,
        "audit": audit.export_instances(tree),
    }


class ArchiveRow(NamedTuple):
    """What the index keeps in memory for one archived root: enough to
    answer counts, outcomes and the root's state and output, plus where
    its entry line and audit slice live on disk."""

    format: int
    definition: str
    finished_at: float
    rc: int
    #: the root's own state and output (its ``instances`` record's).
    state: str | None
    output: dict[str, Any] | None
    #: ``[offset, length]`` of the slice in the sidecar (format 2).
    audit_ref: list[int] | None
    #: byte range of the root's line in ``archive.jsonl``.
    offset: int
    length: int


class InstanceArchive:
    """Append-only archive of finished root instances, with queries."""

    def __init__(self, path: str | os.PathLike[str], *, sync: str = "always"):
        self._path = os.fspath(path)
        stem, extension = os.path.splitext(self._path)
        self._audit_path = stem + "-audit" + extension
        self._sync = sync
        #: root id -> its row, in finish order.
        self._rows: dict[str, ArchiveRow] = {}
        #: any archived instance id -> its root id.
        self._root_of: dict[str, str] = {}
        #: definition name -> root ids.
        self._by_definition: dict[str, list[str]] = {}
        #: the sidecar's length in bytes: where the next slice goes.
        self._audit_size = 0
        if os.path.exists(self._path):
            self._load()
        self._file = open(self._path, "ab")
        self._audit_file = open(self._audit_path, "ab")
        #: reads entry lines by their byte range (``os.pread``).
        self._reader = open(self._path, "rb")

    def _load(self) -> None:
        try:
            audit_size = os.path.getsize(self._audit_path)
        except OSError:
            audit_size = 0
        kept_audit = 0
        cut = None
        position = 0
        with open(self._path, "rb") as handle:
            for number, line in enumerate(handle, 1):
                start = position
                position += len(line)
                if not line.strip():
                    continue
                try:
                    entry = json.loads(line)
                except ValueError:
                    if any(rest.strip() for rest in handle):
                        raise RecoveryError(
                            "%s:%d: corrupt archive entry followed by "
                            "durable data (only a torn final line is a "
                            "clean crash signature)" % (self._path, number)
                        ) from None
                    cut = start
                    break
                if not _well_formed(entry):
                    raise RecoveryError(
                        "%s:%d: malformed archive entry" % (self._path, number)
                    )
                if entry["format"] == ENTRY_FORMAT:
                    offset, length = entry["audit_ref"]
                    if offset + length > audit_size:
                        cut = start
                        break
                    kept_audit = max(kept_audit, offset + length)
                self._index(entry, start, len(line))
        if cut is not None:
            with open(self._path, "r+b") as handle:
                handle.truncate(cut)
        if audit_size > kept_audit:
            # Orphan slices: a crash between the slice and entry writes.
            with open(self._audit_path, "r+b") as handle:
                handle.truncate(kept_audit)
        self._audit_size = kept_audit

    def _index(self, entry: dict[str, Any], offset: int, length: int) -> None:
        root = entry["root"]
        own = entry["instances"].get(root, {})
        self._rows[root] = ArchiveRow(
            entry["format"],
            entry["definition"],
            entry["finished_at"],
            entry["rc"],
            own.get("state"),
            own.get("output"),
            entry.get("audit_ref"),
            offset,
            length,
        )
        for instance_id in entry["instances"]:
            self._root_of[instance_id] = root
        self._by_definition.setdefault(entry["definition"], []).append(root)

    def _entry(self, root: str) -> dict[str, Any]:
        """``root``'s entry, read from its line in ``archive.jsonl``."""
        row = self._rows[root]
        if self._reader is None:
            self._reader = open(self._path, "rb")
        data = os.pread(self._reader.fileno(), row.length, row.offset)
        try:
            entry = json.loads(data)
        except ValueError:
            entry = None
        if not isinstance(entry, dict) or entry.get("root") != root:
            raise RecoveryError(
                "%s: bytes %d+%d are not the archive entry of %s"
                % (self._path, row.offset, row.length, root)
            )
        return entry

    @property
    def path(self) -> str:
        return self._path

    def add(self, entry: dict[str, Any]) -> bool:
        """Append one finished root's entry (its audit slice to the
        sidecar, the rest to the archive); False (and no write) when
        that root is already archived — re-archiving after a replay
        that re-finished a torn-tail instance is the normal heal."""
        root = entry["root"]
        if root in self._rows:
            return False
        if self._file is None:
            raise RecoveryError("archive %s is closed" % self._path)
        line = json.dumps(
            {"records": entry.get("audit", []), "root": root}, sort_keys=True
        ).encode("utf-8") + b"\n"
        stored = {key: value for key, value in entry.items() if key != "audit"}
        stored["format"] = ENTRY_FORMAT
        stored["audit_ref"] = [self._audit_size, len(line)]
        self._audit_file.write(line)
        self._audit_file.flush()
        if self._sync == "always":
            os.fsync(self._audit_file.fileno())
        self._audit_size += len(line)
        offset = self._file.tell()
        data = json.dumps(stored, sort_keys=True).encode("utf-8") + b"\n"
        self._file.write(data)
        self._file.flush()
        if self._sync == "always":
            os.fsync(self._file.fileno())
        self._index(stored, offset, len(data))
        return True

    def audit(self, root: str) -> list[dict[str, Any]] | None:
        """The audit slice of an archived root's whole subtree, read
        from the sidecar; None when ``root`` is not an archived root.
        Raises :class:`RecoveryError` when the slice's bytes are
        corrupt or belong to another root."""
        row = self._rows.get(root)
        if row is None:
            return None
        if row.format == INLINE_FORMAT:
            return self._entry(root)["audit"]
        offset, length = row.audit_ref
        with open(self._audit_path, "rb") as handle:
            handle.seek(offset)
            data = handle.read(length)
        try:
            line = json.loads(data)
        except ValueError:
            line = None
        if (
            not isinstance(line, dict)
            or line.get("root") != root
            or not isinstance(line.get("records"), list)
        ):
            raise RecoveryError(
                "%s: corrupt audit slice for %s at bytes %d+%d"
                % (self._audit_path, root, offset, length)
            )
        return line["records"]

    # -- queries ---------------------------------------------------------

    def ids(self) -> frozenset:
        """Every archived instance id — roots *and* descendants (the
        replay cursor's skip set)."""
        return frozenset(self._root_of)

    def roots(self) -> list[str]:
        return list(self._rows)

    def __len__(self) -> int:
        return len(self._rows)

    def __contains__(self, instance_id: str) -> bool:
        return instance_id in self._root_of

    def instance_count(self) -> int:
        """Total archived instances including block/subprocess children."""
        return len(self._root_of)

    def row(self, root: str) -> ArchiveRow | None:
        """The in-memory row of an archived root (None for any other
        id): its state and output without reading the file."""
        return self._rows.get(root)

    def by_id(self, instance_id: str) -> dict[str, Any] | None:
        """The archived view of one instance (root or descendant), or
        None.  Roots return their full entry; descendants return their
        per-instance record plus a ``root`` back-reference."""
        root = self._root_of.get(instance_id)
        if root is None:
            return None
        entry = self._entry(root)
        if instance_id == root:
            return entry
        view = dict(entry["instances"][instance_id])
        view["instance"] = instance_id
        view["root"] = root
        view["finished_at"] = entry["finished_at"]
        return view

    def by_definition(self, definition: str) -> list[dict[str, Any]]:
        return [
            self._entry(root)
            for root in self._by_definition.get(definition, ())
        ]

    def finished_between(
        self, start: float, end: float
    ) -> list[dict[str, Any]]:
        """Entries with ``start <= finished_at <= end`` (logical clock)."""
        return [
            self._entry(root)
            for root, row in self._rows.items()
            if start <= row.finished_at <= end
        ]

    def outcomes(self, definition: str | None = None) -> dict[int, int]:
        """Return-code -> count over archived roots (optionally one
        definition's)."""
        counts: dict[int, int] = {}
        for row in self._rows.values():
            if definition is not None and row.definition != definition:
                continue
            rc = int(row.rc)
            counts[rc] = counts.get(rc, 0) + 1
        return counts

    # -- lifecycle -------------------------------------------------------

    def flush(self) -> None:
        """The checkpoint barrier: fsync the sidecar, then the archive."""
        if self._file is not None:
            self._audit_file.flush()
            os.fsync(self._audit_file.fileno())
            self._file.flush()
            os.fsync(self._file.fileno())

    def close(self) -> None:
        if self._file is not None:
            self.flush()
            self._audit_file.close()
            self._file.close()
            self._file = self._audit_file = None
        self._close_reader()

    def abandon(self) -> None:
        for handle in (self._audit_file, self._file):
            if handle is not None:
                try:
                    handle.close()
                except OSError:
                    pass
        self._file = self._audit_file = None
        self._close_reader()

    def _close_reader(self) -> None:
        # A query after close opens the reader again.
        if self._reader is not None:
            self._reader.close()
            self._reader = None

    def reopen(self) -> None:
        if self._file is None:
            trim_torn_tail(self._path)
            self._file = open(self._path, "ab")
            self._audit_file = open(self._audit_path, "ab")
            # Bytes a failed write left behind are orphans: skip them.
            self._audit_size = os.path.getsize(self._audit_path)

    def __repr__(self) -> str:
        return "InstanceArchive(%r, roots=%d, instances=%d)" % (
            self._path,
            len(self._rows),
            len(self._root_of),
        )


def _well_formed(entry: Any) -> bool:
    if not isinstance(entry, dict) or "root" not in entry:
        return False
    if entry.get("format") == INLINE_FORMAT:
        return True
    ref = entry.get("audit_ref")
    return (
        entry.get("format") == ENTRY_FORMAT
        and isinstance(ref, list)
        and len(ref) == 2
        and all(isinstance(n, int) and n >= 0 for n in ref)
    )
