"""The system under test, one role per child process.

``python3 bench/sut.py <role> '<json config>'`` runs one of

* ``broker``  — a durable ``BusServer`` (what ``BrokerProcess`` runs in
  its child, built here so the traced rep can wrap it);
* ``node``    — a ``WorkflowNode`` over a ``SocketBus`` and a
  ``DurableStore``, serving one translated saga;
* ``flex``    — an in-process ``Engine`` running Figure 3 flexible
  transactions with a small group commit;
* ``recover`` — preload a store, crash, and recover it on a fresh engine.

A child prints ``READY {...}`` when it can serve and ``REPORT {...}``
before it exits.  Every import of ``repro`` is of a public name; the
README lists them.  With ``trace`` on, public attributes are replaced
by timed versions of themselves (:mod:`spans`); off, nothing is touched.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import sys
import time

from common import emit, process_usage, use_repo_sources
from spans import Recorder, perf
from workloads import (
    IN_FLIGHT,
    check_flex_outcome,
    check_saga_outcome,
    step_names,
)

use_repo_sources()

#: the node's serving round, as ``run_cluster`` runs it.
STEPS_PER_ROUND = 50
IDLE_SLEEP_S = 0.0002
CHECKPOINT_EVERY_RECORDS = 2000
#: flex_fig3_fsync commits its journal every this many records.  Not
#: every record: this host's disk changes its fsync latency by half from
#: one quarter of an hour to the next, which moved the fsync-per-record
#: workload's medians by 20-25% with no code change (README, "Bounds").
FLEX_GROUP_COMMIT = 16
#: the flex loop looks for finished instances every this many steps.
FINISH_POLL_STEPS = 4


class ProgramTap:
    """Stands in for the engine while ``register_*_programs`` runs, so
    each program body is registered inside a ``tx`` span."""

    def __init__(self, engine, recorder: Recorder):
        self._engine = engine
        self._recorder = recorder

    def register_program(self, name, program, description="", **options):
        self._engine.register_program(
            name,
            self._recorder.timed(program, "tx", name),
            description,
            **options,
        )


def _count_fsync(recorder, args, result, start, end) -> None:
    recorder.count("fsyncs")


def _count_step(recorder, args, result, start, end) -> None:
    if result:  # an idle engine's step() returns False
        recorder.count("steps")


def _count_record(recorder, args, result, start, end) -> None:
    # The record's size on disk: one sorted-key JSON line.
    recorder.count("journal_records")
    recorder.count(
        "journal_bytes", len(json.dumps(args[0], sort_keys=True)) + 1
    )


def trace_engine(recorder: Recorder, engine) -> None:
    """Wrap one store-backed engine's layers."""
    recorder.wrap(engine, "step", "wfms.navigator", _count_step)
    recorder.wrap(engine, "run", "wfms.navigator")
    recorder.wrap(engine.navigator, "start_process", "wfms.navigator")
    recorder.wrap(engine.journal, "append", "wfms.journal", _count_record)
    recorder.wrap(engine.journal, "flush", "wfms.journal")
    for attr in ("maybe_checkpoint", "checkpoint", "archive_finished", "compact"):
        recorder.wrap(engine.store, attr, "store")


def saga_programs(config: dict):
    """Translate the workload's saga and bind its subtransactions;
    returns (translation, actions, compensations, set-up ms so far)."""
    from repro.core import SagaSpec, SagaStep, translate_saga
    from repro.tx import AbortProbability, AlwaysAbort, SimDatabase
    from repro.workloads.generator import saga_bindings

    started = perf()
    names = step_names(config["steps"])
    spec = SagaSpec("bench", [SagaStep(name) for name in names])
    translation = translate_saga(spec)
    setup = {"translate_ms": 1e3 * (perf() - started)}
    policies = {}
    if config.get("abort_last"):
        policies[names[-1]] = AlwaysAbort()
    if config.get("abort_p"):
        policies = {
            name: AbortProbability(config["abort_p"], config["seed"] + index)
            for index, name in enumerate(names)
        }
    actions, compensations = saga_bindings(
        spec, SimDatabase(), policies=policies
    )
    return translation, actions, compensations, setup


def register_saga(engine, recorder, translation, actions, compensations):
    """Register the saga's programs (each inside a ``tx`` span) and its
    definition on ``engine``."""
    from repro.core.bindings import register_saga_programs

    register_saga_programs(
        ProgramTap(engine, recorder), translation, actions, compensations
    )
    if translation.process_name not in engine.definitions():
        engine.register_definition(translation.process)


def durable_store(config: dict, sync: str, **options):
    from repro.store import DurableStore

    return DurableStore(
        config["dir"],
        sync=sync,
        checkpoint_every_records=CHECKPOINT_EVERY_RECORDS,
        **options,
    )


def report(recorder: Recorder, **fields) -> None:
    fields.update(process_usage())
    fields["trace"] = recorder.export() if recorder.enabled else None
    emit("REPORT", fields)


# ---------------------------------------------------------------------------
# broker
# ---------------------------------------------------------------------------


def broker_main(config: dict) -> None:
    import repro.net.server as server_module
    from repro.net import BusLog, BusServer, FrameDecoder
    from repro.wfms import MessageBus

    recorder = Recorder(config["trace"])
    for attr in ("encode_frame", "encode_envelope"):
        recorder.wrap(server_module, attr, "net.frames")
    recorder.wrap(FrameDecoder, "feed", "net.frames")
    recorder.wrap(BusLog, "record", "net.buslog")
    recorder.wrap(BusLog, "checkpoint", "net.buslog")
    recorder.wrap(os, "fsync", "fsync", _count_fsync)
    server = BusServer(
        MessageBus(),
        durable_dir=config["dir"],
        durable_sync="batch",
        hard_crash=True,
    )
    for attr in (
        "send_detailed",
        "receive_with_headers",
        "ack",
        "nack",
        "deliveries",
        "depth",
    ):
        recorder.wrap(server.bus, attr, "net.server")

    async def serve() -> None:
        asyncio.get_running_loop().add_signal_handler(
            signal.SIGTERM, server.request_stop
        )
        await server.serve_until_stopped(
            on_started=lambda: emit(
                "READY",
                {
                    "address": list(server.address),
                    "cpu_s": process_usage()["cpu_s"],
                },
            )
        )

    asyncio.run(serve())
    snapshot = server.snapshot()
    report(
        recorder,
        queues=snapshot["queues"],
        buslog_records=(snapshot["durable"] or {}).get("records"),
    )


# ---------------------------------------------------------------------------
# node
# ---------------------------------------------------------------------------


def node_main(config: dict) -> None:
    import repro.net.client as client_module
    from repro.core.bindings import workflow_saga_outcome
    from repro.net import FrameDecoder, SocketBus
    from repro.wfms import WorkflowNode

    recorder = Recorder(config["trace"])
    recorder.wrap(client_module, "encode_frame", "net.frames")
    recorder.wrap(client_module, "decode_envelope", "net.frames")
    recorder.wrap(FrameDecoder, "feed", "net.frames")
    recorder.wrap(os, "fsync", "fsync", _count_fsync)
    bus = SocketBus(config["host"], config["port"], name="worker")
    translation, actions, compensations, setup = saga_programs(config)
    node = WorkflowNode(
        "worker", bus, store_factory=lambda: durable_store(config, "batch")
    )
    engine = node.engine
    started = perf()
    register_saga(engine, recorder, translation, actions, compensations)
    node.serve(translation.process)
    setup["register_ms"] = 1e3 * (perf() - started)

    def received(rec, args, result, start, end) -> None:
        rec.count("receives")
        if result is not None:
            rec.count("receives_useful")
            rid = result[1].get("request_id")
            if rid is not None:
                rec.stamp("node_recv", rid, end)

    def sent(rec, args, result, start, end) -> None:
        if args[1].get("type") == "reply":
            rec.stamp("node_replied", args[1]["request_id"], end)

    recorder.wrap(bus, "receive_with_headers", "net.client", received)
    recorder.wrap(bus, "send", "net.client", sent)
    recorder.wrap(bus, "ack", "net.client")
    recorder.wrap(bus, "deliveries", "net.client")
    trace_engine(recorder, engine)
    recorder.wrap(node, "pump", "wfms.distributed")
    sleep = recorder.timed(time.sleep, "idle", "time.sleep")

    stopping = []
    signal.signal(signal.SIGTERM, lambda *args: stopping.append(True))
    emit("READY", {"ready_at": perf(), "setup": setup})
    step, pump = engine.step, node.pump
    while not stopping:
        progressed = False
        for __ in range(STEPS_PER_ROUND):
            if not step():
                break
            progressed = True
        if pump():
            progressed = True
        if not progressed:
            sleep(IDLE_SLEEP_S)

    # The order oracle: the reply carries containers only, the order of
    # forward steps and compensations is the serving engine's to tell.
    names = step_names(config["steps"])
    violations = {}
    for root in engine.store.archive.roots():
        problem = check_saga_outcome(
            workflow_saga_outcome(engine, translation, root),
            names,
            config["expect"],
        )
        if problem:
            violations[root[len("req/"):]] = problem
    status = engine.store_status()
    engine.close()
    bus.close()
    report(
        recorder,
        violations=violations,
        journal_records=status["journal_records"],
    )


# ---------------------------------------------------------------------------
# flex: in-process engine, Figure 3, group commit of FLEX_GROUP_COMMIT
# ---------------------------------------------------------------------------


def flex_main(config: dict) -> None:
    from repro.core import translate_flexible
    from repro.core.bindings import (
        register_flexible_programs,
        workflow_flexible_outcome,
    )
    from repro.tx import AbortProbability, SimDatabase
    from repro.wfms import Engine
    from repro.workloads import fig3_bindings, fig3_spec

    recorder = Recorder(config["trace"])
    recorder.wrap(os, "fsync", "fsync", _count_fsync)
    started = perf()
    spec = fig3_spec()
    translation = translate_flexible(spec)
    translated = perf()
    # t1 and t2 always commit; t3..t8 abort a quarter of their attempts,
    # so all three paths and partial compensation of t5/t6 occur.
    policies = {
        "t%d" % member: AbortProbability(0.25, config["seed"] + member)
        for member in range(3, 9)
    }
    actions, compensations = fig3_bindings(SimDatabase(), policies)
    engine = Engine(
        store=durable_store(config, "batch", batch_size=FLEX_GROUP_COMMIT)
    )
    register_flexible_programs(
        ProgramTap(engine, recorder), translation, actions, compensations
    )
    engine.register_definition(translation.process)
    setup = {
        "translate_ms": 1e3 * (translated - started),
        "register_ms": 1e3 * (perf() - translated),
    }
    trace_engine(recorder, engine)
    ready_at = perf()

    total = config["warm"] + config["timed"]
    process = translation.process_name
    begun: dict[str, float] = {}  # in start order
    finished_at: dict[str, float] = {}
    in_flight: list[str] = []
    start_process, step, state_of = (
        engine.start_process,
        engine.step,
        engine.instance_state,
    )
    steps = 0
    while len(finished_at) < total:
        while len(in_flight) < IN_FLIGHT and len(begun) < total:
            now = perf()
            instance = start_process(process)
            begun[instance] = now
            in_flight.append(instance)
        stepped = step()
        steps += stepped
        if stepped and steps % FINISH_POLL_STEPS:
            continue
        now = perf()
        done = [i for i in in_flight if state_of(i) == "finished"]
        if not stepped and not done:
            raise RuntimeError("engine idle with instances in flight")
        for instance in done:
            in_flight.remove(instance)
            finished_at[instance] = now
    ended = perf()

    labels, problems = [], {}
    for instance in begun:
        problem, label = check_flex_outcome(
            workflow_flexible_outcome(engine, translation, instance), spec
        )
        labels.append(label)
        if problem:
            problems[instance] = problem
    status = engine.store_status()
    engine.close()
    report(
        recorder,
        ready_at=ready_at,
        setup=setup,
        begun=list(begun.values()),
        finished=[finished_at[instance] for instance in begun],
        ended=ended,
        labels=labels,
        problems=problems,
        steps=steps,
        journal_records=status["journal_records"],
    )


# ---------------------------------------------------------------------------
# recover: preload, crash, recover on a fresh engine
# ---------------------------------------------------------------------------


def recover_main(config: dict) -> None:
    from repro.core.bindings import workflow_saga_outcome
    from repro.wfms import Engine

    recorder = Recorder(config["trace"])
    recorder.wrap(os, "fsync", "fsync", _count_fsync)
    translation, actions, compensations, setup = saga_programs(config)
    engine = Engine(store=durable_store(config, "batch"))
    # The preload is set-up: its programs are registered untraced.
    register_saga(engine, Recorder(False), translation, actions, compensations)
    process = translation.process_name
    started = perf()
    finished = []
    for __ in range(config["finished"]):
        finished.append(engine.start_process(process))
        if len(finished) % IN_FLIGHT == 0:
            engine.run()
    engine.run()
    # A checkpoint, then the batch that will be in flight at the crash:
    # it gets, round-robin, about half the steps its sagas need, so the
    # recovery replays exactly this batch's records.  (The batch writes
    # fewer records than the checkpoint cadence on purpose: a snapshot
    # taken while a block activity runs makes recover() raise when the
    # block's completion is journaled before the crash — see README.)
    engine.checkpoint()
    half = [engine.start_process(process) for __ in range(config["half"])]
    for __ in range(len(half) * config["steps"] // 2):
        engine.step()
    unfinished = [i for i in half if engine.instance_state(i) != "finished"]
    engine.crash()
    setup["preload_ms"] = 1e3 * (perf() - started)
    ready_at = perf()

    # -- timed: the post-crash engine, from construction to quiescence --
    fresh = recorder.timed(
        lambda: Engine(store=durable_store(config, "batch")),
        "store.open",
        "Engine(store=DurableStore)",
    )()
    # The same Subtransaction objects as before the crash: their attempt
    # counters then tell whether recovery ran any step a second time.
    register_saga(fresh, recorder, translation, actions, compensations)
    trace_engine(recorder, fresh)
    recorder.wrap(fresh.store, "latest_checkpoint", "store.snapshot")
    recover = recorder.timed(fresh.recover, "wfms.recovery", "Engine.recover")
    replayed = recover()
    fresh.run()
    ended = perf()

    names = step_names(config["steps"])
    problems = {}
    reached = dict.fromkeys(names, 0)
    undone = dict.fromkeys(names, 0)
    for instance in finished + half:
        try:
            state = fresh.instance_state(instance)
        except Exception as exc:  # an instance the recovery lost
            problems[instance] = "lost: %s" % exc
            continue
        if state != "finished":
            problems[instance] = "state %s after recovery" % state
            continue
        outcome = workflow_saga_outcome(fresh, translation, instance)
        problem = check_saga_outcome(outcome, names, "any")
        if problem:
            problems[instance] = problem
        attempted = len(outcome.executed) + (0 if outcome.committed else 1)
        for name in names[:attempted]:
            reached[name] += 1
        for name in outcome.compensated:
            undone[name] += 1
    # Each step ran once per instance that reached it, crash or no crash.
    for name in names:
        if actions[name].attempts != reached[name]:
            problems["step " + name] = "ran %d times for %d instances" % (
                actions[name].attempts, reached[name])
        if compensations[name].attempts != undone[name]:
            problems["comp_" + name] = "ran %d times for %d instances" % (
                compensations[name].attempts, undone[name])
    status = fresh.store_status()
    last_recovery = fresh.store.last_recovery
    fresh.close()
    report(
        recorder,
        ready_at=ready_at,
        setup=setup,
        recovery_s=ended - ready_at,
        ended=ended,
        unfinished_at_crash=len(unfinished),
        replayed=replayed,
        last_recovery=last_recovery,
        problems=problems,
        journal_records=status["journal_records"],
    )


ROLES = {
    "broker": broker_main,
    "node": node_main,
    "flex": flex_main,
    "recover": recover_main,
}

if __name__ == "__main__":
    ROLES[sys.argv[1]](json.loads(sys.argv[2]))
