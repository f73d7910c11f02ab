"""JRNL — journal append throughput under the sync policies.

``always`` pays one fsync per record (the §3.3 per-decision durability
point); ``batch`` group-commits, amortising the fsync over
``batch_size`` records; ``never`` leaves durability to the OS.  The
spread between the first two is the price of the strict guarantee —
and what an engine relaxing it with ``DurableStore(d, sync="batch")``
buys.
"""

import time

import pytest

from repro.store import SegmentedJournal

from _helpers import print_table

APPENDS = 2_000
BATCH_SIZE = 64


def sample_record(n: int) -> dict:
    return {
        "type": "activity_completed",
        "instance": "pi-%04d" % (n % 97),
        "activity": "a_%d" % (n % 9),
        "attempt": 1,
        "output": {"_RC": 0, "Total": 125.5},
        "forced": False,
        "user": "",
    }


RECORDS = [sample_record(n) for n in range(APPENDS)]


def append_all(journal: SegmentedJournal) -> None:
    append = journal.append
    for record in RECORDS:
        append(record)
    journal.flush()


def journal_for(tmp_path, sync: str, index: int) -> SegmentedJournal:
    return SegmentedJournal(
        tmp_path / ("j_%s_%d" % (sync, index)),
        sync=sync,
        batch_size=BATCH_SIZE,
        batch_interval=3600.0,
    )


def measure(tmp_path, sync: str) -> float:
    """records/second appended (including the final flush), best of 3."""
    best = 0.0
    for attempt in range(3):
        journal = journal_for(tmp_path, sync, attempt)
        start = time.perf_counter()
        append_all(journal)
        elapsed = time.perf_counter() - start
        journal.close()
        best = max(best, APPENDS / elapsed)
    return best


@pytest.mark.parametrize("sync", ["always", "batch", "never"])
def test_append_throughput(benchmark, tmp_path, sync):
    journals = iter(range(1_000_000))

    def run():
        journal = journal_for(tmp_path, sync, next(journals))
        append_all(journal)
        journal.close()

    benchmark(run)


def test_sync_policy_table(benchmark, tmp_path):
    rows = []
    always = measure(tmp_path, "always")
    for sync in ("always", "batch", "never"):
        throughput = measure(tmp_path, sync) if sync != "always" else always
        rows.append(
            (sync, "%.0f" % throughput, "%.1fx" % (throughput / always))
        )
    print_table(
        "JRNL: journal appends/sec by sync policy (%d records, batch=%d)"
        % (APPENDS, BATCH_SIZE),
        ["sync", "appends/sec", "vs always"],
        rows,
    )
    journal = journal_for(tmp_path, "batch", 999)
    benchmark(lambda: journal.append(sample_record(0)))
    journal.close()
