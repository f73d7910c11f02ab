"""Atomic whole-file replacement.

Every small file whose *presence* means "this state is durable" — a
checkpoint, the journal manifest, the broker's ``EPOCH`` — is replaced
through :func:`atomic_write`, so a crash at any point leaves either
the old complete file or the new complete file visible, never a mix.
"""

from __future__ import annotations

import os
import tempfile


def fsync_dir(path: str) -> None:
    """fsync a directory so a rename inside it is durable."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def atomic_write(path: str | os.PathLike[str], data: str) -> None:
    """Replace ``path`` with ``data``: write a temp file in the same
    directory → flush + fsync → ``os.replace`` onto the final name →
    fsync the directory."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(
        prefix=os.path.basename(path) + ".", suffix=".tmp", dir=directory
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    fsync_dir(directory)
