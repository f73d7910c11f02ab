"""The specification files shipped under examples/specs/ must keep
parsing, validating and translating.  Their behaviour against the
native executors, under every outcome vector, is walked in
tests/core/test_exhaustive.py."""

import glob
import os

import pytest

from repro.core.fmtm import translate
from repro.core.speclang import parse_spec

SPEC_DIR = os.path.join(
    os.path.dirname(__file__), os.pardir, "examples", "specs"
)
SPEC_FILES = sorted(glob.glob(os.path.join(SPEC_DIR, "*.fmtm")))
SPEC_IDS = [os.path.basename(p) for p in SPEC_FILES]


def load(path):
    with open(path, "r", encoding="utf-8") as handle:
        return parse_spec(handle.read())


def test_spec_directory_is_populated():
    assert len(SPEC_FILES) >= 4


@pytest.mark.parametrize("path", SPEC_FILES, ids=SPEC_IDS)
def test_shipped_spec_translates(path):
    translation = translate(load(path))
    translation.process.validate()
    assert translation.required_programs
