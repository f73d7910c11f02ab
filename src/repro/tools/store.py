"""Durable-store operator CLI.

Offline inspection and maintenance of a :class:`~repro.store.DurableStore`
directory (the files an ``Engine(store=...)`` writes)::

    python -m repro.tools.store inspect   STORE_DIR
    python -m repro.tools.store checkpoint STORE_DIR
    python -m repro.tools.store compact   STORE_DIR
    python -m repro.tools.store archive-query STORE_DIR --definition Pay
    python -m repro.tools.store archive-query STORE_DIR --outcomes

``inspect`` summarises the segmented journal (manifest + segments),
the checkpoints (newest first, each verified) and the archive, and
reports the *replay debt*: how many journal records a recovery would
replay past the latest valid checkpoint.  ``checkpoint`` validates
every snapshot file on disk.  ``compact`` drops journal segments
wholly covered by the oldest retained checkpoint (recovery may have to
fall back to it) — exactly what the engine does online after each
checkpoint.  ``archive-query``
answers the monitoring queries (:meth:`by_id`, :meth:`by_definition`,
:meth:`finished_between`, :meth:`outcomes`) from the archive file.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.errors import RecoveryError, WorkflowError
from repro.store import Checkpoint, DurableStore
from repro.store.archive import INLINE_FORMAT


def _open_store(directory: str) -> DurableStore:
    store = DurableStore(directory)
    store.attach()
    return store


def _checkpoint_rows(store: DurableStore) -> list[dict]:
    rows = []
    for path in store.checkpoint_files():
        checkpoint = Checkpoint.load(path)
        if checkpoint is None:
            rows.append({"file": path, "valid": False})
        else:
            rows.append(
                {
                    "file": path,
                    "valid": True,
                    "offset": checkpoint.offset,
                    "sequence": checkpoint.sequence,
                    "clock": checkpoint.clock,
                    "instances": checkpoint.instance_count,
                }
            )
    return rows


def cmd_inspect(store: DurableStore, args, out) -> int:
    journal = store.journal
    status = store.status()
    print("store %s" % status["directory"], file=out)
    print(
        "journal: %d records in %d live segments"
        % (status["journal_records"], status["segments_live"]),
        file=out,
    )
    for entry in journal.manifest()["segments"]:
        count = entry["count"]
        print(
            "  segment %d %-28s first=%d count=%s%s"
            % (
                entry["id"],
                entry["file"],
                entry["first"],
                count if count is not None else "(active)",
                " sparse" if entry.get("sparse") else "",
            ),
            file=out,
        )
    rows = _checkpoint_rows(store)
    print("checkpoints: %d" % len(rows), file=out)
    for row in reversed(rows):  # newest first
        if row["valid"]:
            print(
                "  %s offset=%d sequence=%d clock=%.3f instances=%d"
                % (
                    row["file"],
                    row["offset"],
                    row["sequence"],
                    row["clock"],
                    row["instances"],
                ),
                file=out,
            )
        else:
            print("  %s CORRUPT (recovery skips it)" % row["file"], file=out)
    checkpoint, skipped = store.latest_checkpoint()
    debt = (
        journal.next_index - checkpoint.offset
        if checkpoint is not None
        else journal.next_index
    )
    print(
        "replay debt: %d records past %s%s"
        % (
            debt,
            "offset %d" % checkpoint.offset
            if checkpoint is not None
            else "the journal start (no valid checkpoint)",
            " (%d corrupt checkpoint(s) skipped)" % skipped if skipped else "",
        ),
        file=out,
    )
    print(
        "archive: %d roots / %d instances, outcomes %s"
        % (
            status["archived_roots"],
            status["archived_instances"],
            json.dumps(store.archive.outcomes(), sort_keys=True),
        ),
        file=out,
    )
    return 0


def cmd_checkpoint(store: DurableStore, args, out) -> int:
    rows = _checkpoint_rows(store)
    if not rows:
        print("no checkpoint files", file=out)
        return 0
    bad = 0
    for row in rows:
        if row["valid"]:
            print(
                "VALID   %s offset=%d instances=%d"
                % (row["file"], row["offset"], row["instances"]),
                file=out,
            )
        else:
            bad += 1
            print("CORRUPT %s" % row["file"], file=out)
    return 1 if bad == len(rows) else 0


def cmd_compact(store: DurableStore, args, out) -> int:
    stats = store.compact()
    print(
        "compacted to offset %d: dropped %d segment(s) / %d record(s), "
        "%d live segment(s) remain"
        % (
            stats["offset"],
            stats["segments_dropped"],
            stats["records_dropped"],
            stats["segments_live"],
        ),
        file=out,
    )
    return 0


def cmd_archive_query(store: DurableStore, args, out) -> int:
    archive = store.archive
    if args.outcomes:
        print(
            json.dumps(
                {
                    str(rc): count
                    for rc, count in archive.outcomes(args.definition).items()
                },
                sort_keys=True,
            ),
            file=out,
        )
        return 0
    if args.id:
        view = archive.by_id(args.id)
        if view is None:
            print("error: %s is not archived" % args.id, file=out)
            return 1
        if "instances" in view:
            # A root: print its entry in the inline (format-1) shape,
            # audit slice attached, as the command always has.
            view = {k: v for k, v in view.items() if k != "audit_ref"}
            view.update(format=INLINE_FORMAT, audit=archive.audit(args.id))
        print(json.dumps(view, indent=2, sort_keys=True), file=out)
        return 0
    if args.since is not None or args.until is not None:
        start = args.since if args.since is not None else float("-inf")
        end = args.until if args.until is not None else float("inf")
        entries = archive.finished_between(start, end)
    elif args.definition:
        entries = archive.by_definition(args.definition)
    else:
        entries = [archive.by_id(root) for root in archive.roots()]
    if args.definition:
        entries = [e for e in entries if e["definition"] == args.definition]
    for entry in entries:
        print(
            "%s %s v%s rc=%d finished_at=%.3f instances=%d"
            % (
                entry["root"],
                entry["definition"],
                entry["version"],
                entry["rc"],
                entry["finished_at"],
                len(entry["instances"]),
            ),
            file=out,
        )
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.tools.store",
        description="Inspect and maintain a durable store directory.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("inspect", "checkpoint", "compact"):
        command = sub.add_parser(name)
        command.add_argument("directory")
    query = sub.add_parser("archive-query")
    query.add_argument("directory")
    query.add_argument("--definition", help="filter by process definition")
    query.add_argument("--id", help="one instance (root or descendant)")
    query.add_argument("--since", type=float, help="finished_at lower bound")
    query.add_argument("--until", type=float, help="finished_at upper bound")
    query.add_argument(
        "--outcomes",
        action="store_true",
        help="return-code histogram instead of entries",
    )
    return parser


_COMMANDS = {
    "inspect": cmd_inspect,
    "checkpoint": cmd_checkpoint,
    "compact": cmd_compact,
    "archive-query": cmd_archive_query,
}


def main(argv: list[str] | None = None, out=None) -> int:
    out = out if out is not None else sys.stdout
    args = _build_parser().parse_args(argv)
    try:
        store = _open_store(args.directory)
    except (OSError, RecoveryError, WorkflowError) as exc:
        print("error: %s" % exc, file=out)
        return 1
    try:
        return _COMMANDS[args.command](store, args, out)
    except (OSError, RecoveryError, WorkflowError) as exc:
        print("error: %s" % exc, file=out)
        return 1
    finally:
        store.close()


if __name__ == "__main__":
    raise SystemExit(main())
