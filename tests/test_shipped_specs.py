"""The specification files shipped under examples/specs/ must keep
parsing, validating and translating — and every one of them, run
through the one binding layer with no abort and with each member
aborting once, must agree with its model's native executor."""

import glob
import os

import pytest

from repro.core.bindings import register_programs, workflow_outcome
from repro.core.contract import ContractSpec, NativeContractExecutor
from repro.core.flexible import FlexibleSpec, NativeFlexibleExecutor
from repro.core.fmtm import translate
from repro.core.sagas import NativeSagaExecutor, SagaSpec, verify_saga_guarantee
from repro.core.speclang import parse_spec
from repro.tx import AbortScript, SimDatabase, Subtransaction
from repro.tx.subtransaction import write_value
from repro.wfms.engine import Engine

SPEC_DIR = os.path.join(
    os.path.dirname(__file__), os.pardir, "examples", "specs"
)
SPEC_FILES = sorted(glob.glob(os.path.join(SPEC_DIR, "*.fmtm")))
SPEC_IDS = [os.path.basename(p) for p in SPEC_FILES]
NATIVE = {
    SagaSpec: NativeSagaExecutor,
    FlexibleSpec: NativeFlexibleExecutor,
    ContractSpec: NativeContractExecutor,
}
#: Process input (a contract's context) for every spec that declares one.
CONTEXT = {"Weight": 80, "Priority": 1}


def load(path):
    with open(path, "r", encoding="utf-8") as handle:
        return parse_spec(handle.read())


def stub_bindings(translation, database, abort):
    """Each member writes its flag, each compensation clears it;
    ``abort`` (if any) aborts its first attempt."""
    actions = {
        name: Subtransaction(name, database, write_value(name, 1))
        for name in translation.programs
    }
    if abort:
        actions[abort].policy = AbortScript([1])
    compensations = {
        name: Subtransaction("undo_%s" % name, database, write_value(name, 0))
        for name in translation.compensation_programs
    }
    return actions, compensations


def test_spec_directory_is_populated():
    assert len(SPEC_FILES) >= 4


@pytest.mark.parametrize("path", SPEC_FILES, ids=SPEC_IDS)
def test_shipped_spec_translates(path):
    translation = translate(load(path))
    translation.process.validate()
    assert translation.required_programs


@pytest.mark.parametrize("path", SPEC_FILES, ids=SPEC_IDS)
def test_shipped_spec_matches_native_under_every_single_abort(path):
    spec = load(path)
    translation = translate(spec)
    inputs = {d.name: CONTEXT[d.name] for d in translation.process.input_spec}
    for abort in [None] + list(translation.programs):
        native_db, workflow_db = SimDatabase(), SimDatabase()
        executor = NATIVE[type(spec)](
            spec, *stub_bindings(translation, native_db, abort)
        )
        native = executor.run(dict(inputs)) if inputs else executor.run()
        engine = Engine()
        register_programs(
            engine, translation, *stub_bindings(translation, workflow_db, abort)
        )
        engine.register_definition(translation.process)
        instance = engine.start_process(translation.process_name, inputs)
        engine.run()
        outcome = workflow_outcome(engine, translation, instance)
        label = "abort %s" % abort
        assert outcome.committed == native.committed, label
        # A parallel saga's started siblings finish before compensation
        # begins (EXPERIMENTS.md FIG4), so the workflow may write and
        # undo a flag the native executor never writes: compare the
        # effects that persist.
        assert _persisting(workflow_db) == _persisting(native_db), label
        if isinstance(spec, SagaSpec) and spec.is_linear:
            assert verify_saga_guarantee(
                spec, outcome.executed, outcome.compensated
            ), label


def _persisting(database):
    return {key: value for key, value in database.snapshot().items() if value}
