import os

import pytest


@pytest.fixture
def disk_events(monkeypatch):
    """Spy on the two calls that make a write durable and visible:
    a list of ``("fsync", fd)`` and ``("replace", basename)`` events,
    in order, recorded while the real calls still happen."""
    events = []
    real_fsync, real_replace = os.fsync, os.replace

    def fsync(fd):
        events.append(("fsync", fd))
        real_fsync(fd)

    def replace(src, dst):
        events.append(("replace", os.path.basename(dst)))
        real_replace(src, dst)

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "replace", replace)
    return events
