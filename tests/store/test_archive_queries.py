"""Archive and engine queries over archived roots, pinned by digest.

The archive keeps one small row per finished root in memory and reads
the root's entry line from ``archive.jsonl`` when a query needs more.
Each digest in ``ANSWERS`` covers every query's answer over one store,
so a read path that drops, reorders or reshapes an answer moves it:

* archive: ``roots``, ``len``, ``instance_count``, ``in``, ``by_id``
  for every archived id (roots and descendants), ``by_definition``,
  ``finished_between``, ``outcomes`` and ``audit``;
* engine: ``result``, ``instance_state``, ``output``,
  ``execution_order`` (deep and flat), ``activity_states``,
  ``monitor``, ``account`` (deep and flat) and
  ``process_list(include_archived=True)``.

The stores: store-backed Figure 2 sagas and Figure 3 flexible
transactions (translated by Figure 4), a recovered store, a reopened
archive, an archive whose torn tail was trimmed, and the format-1 and
format-2 directories of ``test_parent_format``.  ``FILES`` pins the
bytes of every file the Figure 2-4 runs leave: archive, audit sidecar,
checkpoints and journal segments.
"""

import hashlib
import json
import os

import pytest

from repro.core import translate_flexible
from repro.core.bindings import register_programs
from repro.store import DurableStore
from repro.store.archive import InstanceArchive
from repro.tx import AbortProbability, SimDatabase
from repro.wfms import Activity, Engine, ProcessDefinition
from repro.wfms.engine import ProcessResult
from repro.workloads import fig3_bindings, fig3_spec
from tests.store.test_engine_store import fig2_saga_engine
from tests.store.test_parent_format import write_store

WINDOWS = ((float("-inf"), float("inf")), (0.0, 0.0), (1.0, 2.0))


def digest(value) -> str:
    text = json.dumps(value, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def archive_answers(archive):
    ids = sorted(archive.ids()) + ["pi-9999"]
    roots = archive.roots()
    definitions = sorted({archive.by_id(root)["definition"] for root in roots})
    return {
        "roots": roots,
        "len": len(archive),
        "instance_count": archive.instance_count(),
        "in": [instance_id in archive for instance_id in ids],
        "by_id": {instance_id: archive.by_id(instance_id) for instance_id in ids},
        "by_definition": {
            name: archive.by_definition(name) for name in definitions + ["?"]
        },
        "finished_between": [
            archive.finished_between(start, end) for start, end in WINDOWS
        ],
        "outcomes": [archive.outcomes()]
        + [archive.outcomes(name) for name in definitions],
        "audit": {root: archive.audit(root) for root in roots + ["pi-9999"]},
    }


def engine_answers(engine):
    rows = engine.process_list(include_archived=True)

    def answers(instance_id):
        result = engine.result(instance_id)
        return {
            "result": {
                slot: getattr(result, slot) for slot in ProcessResult.__slots__
            },
            "state": engine.instance_state(instance_id),
            "output": engine.output(instance_id),
            "order": engine.execution_order(instance_id),
            "flat_order": engine.execution_order(
                instance_id, include_children=False
            ),
            "activity_states": engine.activity_states(instance_id),
            "monitor": engine.monitor(instance_id),
            "account": engine.account(instance_id),
            "flat_account": engine.account(
                instance_id, include_children=False
            ),
        }

    return {
        "process_list": rows,
        "instances": {row["instance"]: answers(row["instance"]) for row in rows},
        "archive": archive_answers(engine.store.archive),
    }


def files(directory):
    """Relative path -> sha256 of every file under ``directory``."""
    found = {}
    for parent, __, names in os.walk(directory):
        for name in names:
            path = os.path.join(parent, name)
            with open(path, "rb") as handle:
                found[os.path.relpath(path, directory)] = hashlib.sha256(
                    handle.read()
                ).hexdigest()
    return found


def fig3_engine(directory, seed):
    translation = translate_flexible(fig3_spec())
    policies = {
        "t%d" % member: AbortProbability(0.3, seed + member)
        for member in range(1, 9)
    }
    actions, compensations = fig3_bindings(SimDatabase(), policies)
    engine = Engine(store=DurableStore(directory))
    register_programs(engine, translation, actions, compensations)
    engine.register_definition(translation.process)
    return engine, translation.process_name


def fig3_runs(directory, seed=3):
    """Eight Figure 3 transactions with a checkpoint after the fourth,
    and a ninth left half-executed."""
    engine, name = fig3_engine(directory, seed)
    for index in range(8):
        engine.start_process(name)
        engine.run()
        if index == 3:
            engine.checkpoint()
    engine.start_process(name)
    for __ in range(5):
        engine.step()
    return engine, name


def scenario_fig2(tmp_path):
    answers, on_disk = {}, {}
    for abort_at in (None, "t1", "t2", "t3"):
        directory = tmp_path / str(abort_at)
        engine, name = fig2_saga_engine(DurableStore(directory), abort_at)
        engine.run_process(name)
        engine.run_process(name)
        answers[str(abort_at)] = engine_answers(engine)
        engine.close()
        on_disk[str(abort_at)] = files(directory)
    return answers, on_disk


def scenario_fig3(tmp_path):
    engine, __ = fig3_runs(tmp_path)
    answers = engine_answers(engine)
    engine.close()
    return answers, files(tmp_path)


def scenario_recovered(tmp_path):
    engine, name = fig3_runs(tmp_path, seed=11)
    for __ in range(3):
        engine.start_process(name)
    for __ in range(12):
        engine.step()
    engine.crash()
    fresh, __ = fig3_engine(tmp_path, 11)
    fresh.recover()
    fresh.run()
    answers = engine_answers(fresh)
    fresh.close()
    return answers, None


def scenario_reopened(tmp_path):
    engine, __ = fig3_runs(tmp_path, seed=5)
    engine.close()
    archive = InstanceArchive(tmp_path / "archive.jsonl")
    answers = {"archive": archive_answers(archive)}
    archive.close()
    fresh, __ = fig3_engine(tmp_path, 5)
    answers["engine"] = engine_answers(fresh)
    fresh.close()
    return answers, None


def scenario_torn(tmp_path):
    engine, __ = fig3_runs(tmp_path, seed=7)
    engine.close()
    path = tmp_path / "archive.jsonl"
    data = path.read_bytes()
    path.write_bytes(data[: len(data) - 20])
    archive = InstanceArchive(path)
    answers = archive_answers(archive)
    archive.close()
    return answers, None


def parent_format(tmp_path, with_checkpoint):
    write_store(tmp_path, with_checkpoint=with_checkpoint)
    engine = Engine(store=DurableStore(tmp_path))
    engine.register_program("p", lambda ctx: 0)
    flow = ProcessDefinition("Flow")
    for name in "ABC":
        flow.add_activity(Activity(name, program="p"))
    flow.connect("A", "B")
    flow.connect("B", "C")
    engine.register_definition(flow)
    engine.recover()
    engine.run()
    answers = {"engine": engine_answers(engine)}
    engine.close()
    archive = InstanceArchive(tmp_path / "archive.jsonl")
    answers["reopened"] = archive_answers(archive)
    archive.close()
    return answers, None


SCENARIOS = {
    "fig2": scenario_fig2,
    "fig3": scenario_fig3,
    "recovered": scenario_recovered,
    "reopened": scenario_reopened,
    "torn": scenario_torn,
    "format_checkpointed": lambda path: parent_format(path, True),
    "format_replayed": lambda path: parent_format(path, False),
}

#: scenario -> digest of its answers, recorded while the archive index
#: still held every root's whole entry in memory.
ANSWERS = {
    "fig2": (
        "e7e0f3725b41d14a726a6c41227ec1fc5e83e406f593ae32444e211286ecc075"
    ),
    "fig3": (
        "7cc0ad5e7084f5ebe88ca09a06c66d7d80c66a3bdf94b6a68f2d5e0e8d1e3db6"
    ),
    "recovered": (
        "dbb9a48960e9a57dbb317d7fd242ba2438ee8a8c9044285365448e3359aa84e4"
    ),
    "reopened": (
        "e5568a0c82c312bf3bbf4a1e9398e926241aa6e66b7d295f1b4185c95d55e131"
    ),
    "torn": (
        "535a5c0ac50575c1d95778e8a31e624bf1d336ecb831320f8399bf8acf616731"
    ),
    "format_checkpointed": (
        "9ff8393dd5555885dd84cf31a5bbec5b030b421f9918070774f6042ff45bcac7"
    ),
    "format_replayed": (
        "a8de628b2fb4b2b01b76ec845246b9c137f909825a8ab0600f127237f22f4566"
    ),
}

#: scenario -> digest of the files its runs left on disk.
FILES = {
    "fig2": (
        "502f75f1f73f9831bc6fa632b1b4fecfd3f12151ac37005b9c99a1fe42568c82"
    ),
    "fig3": (
        "ea7c0ede678844860245a8188f07da073a7710c16dd54e60a4c2e9a2357bd0f4"
    ),
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_answers_are_pinned(name, tmp_path):
    answers, on_disk = SCENARIOS[name](tmp_path)
    assert digest(answers) == ANSWERS[name]
    if name in FILES:
        assert digest(on_disk) == FILES[name]


def test_output_of_an_archived_root_is_a_copy(tmp_path):
    engine, __ = fig3_runs(tmp_path)
    root = engine.store.archive.roots()[0]
    engine.output(root)["_RC"] = 99
    engine.result(root).output["_RC"] = 99
    assert engine.output(root)["_RC"] != 99
    assert engine.result(root).output["_RC"] != 99
    engine.close()
