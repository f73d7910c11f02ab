"""README.md's ``python`` blocks run as written: each one executes in
a fresh namespace with a fresh working directory, so a block that
stops matching the API fails here instead of in a reader's shell."""

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


def test_readme_has_its_ten_python_blocks():
    assert len(BLOCKS) == 10


@pytest.mark.parametrize(
    "source", BLOCKS, ids=["block%d" % n for n in range(1, len(BLOCKS) + 1)]
)
def test_readme_block_runs(source, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    exec(compile(source, README, "exec"), {"__name__": "readme"})
