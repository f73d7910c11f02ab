"""README.md's ``python`` blocks run as written: each one executes in
a fresh namespace with a fresh working directory, so a block that
stops matching the API fails here instead of in a reader's shell.

A block that prints ends with one ``# -> <line>`` comment per line it
prints; its captured stdout must be exactly those lines."""

import contextlib
import io
import os
import re

import pytest

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def python_blocks():
    """The source of every ```python block, in document order."""
    with open(README, encoding="utf-8") as handle:
        text = handle.read()
    return re.findall(r"^```python\n(.*?)^```$", text, re.M | re.S)


BLOCKS = python_blocks()


def expected_stdout(source):
    """The block's trailing ``# -> `` lines as the stdout they promise,
    or None when the block promises nothing."""
    lines = source.rstrip("\n").split("\n")
    promised = []
    while lines and lines[-1].startswith("# -> "):
        promised.insert(0, lines.pop()[len("# -> "):])
    return "".join(line + "\n" for line in promised) if promised else None


def test_readme_has_its_ten_python_blocks():
    assert len(BLOCKS) == 10


@pytest.mark.parametrize(
    "source", BLOCKS, ids=["block%d" % n for n in range(1, len(BLOCKS) + 1)]
)
def test_readme_block_runs(source, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        exec(compile(source, README, "exec"), {"__name__": "readme"})
    expected = expected_stdout(source)
    if expected is not None:
        assert stdout.getvalue() == expected


def test_printing_blocks_promise_their_output():
    """Every block that calls print() at top level ends with its
    ``# -> `` lines."""
    for number, source in enumerate(BLOCKS, 1):
        prints = re.search(r"^print\(", source, re.M)
        assert not prints or expected_stdout(source) is not None, number
