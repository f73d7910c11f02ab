"""Every script under examples/ runs to the end and prints what it
promises: each runs in-process as ``__main__`` and its last non-empty
output line is checked."""

import contextlib
import glob
import io
import os
import runpy
import tempfile

import pytest

EXAMPLE_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "examples")

#: script -> text its last non-empty output line contains.
LAST_LINES = {
    "contract_shipping.py": "warehouse:   {'pick': 0, 'weigh': 0, "
    "'book_freight': 0}",
    "distributed_cluster.py": "(exactly one — no duplicates)",
    "durable_flow_tour.py": "every step body ran exactly once",
    "flexible_transfer.py": "money conserved: True",
    "forward_recovery.py": "every step ran exactly once",
    "observability_tour.py": "activity Comp_book_flight [PROGRAM]",
    "order_fulfillment.py": "output: {'_RC': 0, 'Billed': 400, "
    "'Rejected': 0}",
    "quickstart.py": "database state: {'reserve': 1, 'charge': 1, "
    "'ship': 1}",
    "travel_saga.py": "cancel_book_flight attempt 1 -> commit",
}


def test_every_example_is_listed():
    scripts = {
        os.path.basename(p)
        for p in glob.glob(os.path.join(EXAMPLE_DIR, "*.py"))
    }
    assert scripts == set(LAST_LINES)


@pytest.mark.parametrize("script", sorted(LAST_LINES))
def test_example_runs(script, tmp_path, monkeypatch):
    # Examples keep their journals under tempfile.mkdtemp().
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(
            os.path.join(EXAMPLE_DIR, script), run_name="__main__"
        )
    lines = [line for line in out.getvalue().splitlines() if line.strip()]
    assert LAST_LINES[script] in lines[-1]
