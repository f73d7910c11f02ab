"""Seeded flow-crash chaos: every schedule kills and resumes engines
at PRNG-chosen points, runs twice from scratch, and must produce
bit-identical traces (step-body invocation order, flow results,
database state, runtime counters, normalized audit) with every step
body executing exactly once.

Two topologies:

* a store-backed :class:`~repro.wfms.engine.Engine` (no checkpoint
  policy: recovery replays the whole journal) — ten schedules;
* a durable socket-broker cluster (``front`` node calling flows served
  by a ``flowd`` node over :class:`~repro.net.BusServerThread` with a
  write-ahead bus log) — four schedules with flow-engine kills, plus a
  broker-bounce run.
"""

import json
import os
import random

import pytest

from repro.core.scoped import install_scope_service
from repro.flow import (
    ARGS,
    ERROR,
    RESULT,
    StepFailure,
    flow_args,
    install_flows,
    step,
    transaction,
    workflow,
)
from repro.net import BusServerThread
from repro.store import DurableStore
from repro.tx import ScopeManager, SimDatabase
from repro.wfms.datatypes import DataType, VariableDecl
from repro.wfms.distributed import (
    WorkflowNode,
    _advance_to_timers,
    pump_round,
)
from repro.wfms.model import PROCESS_INPUT, PROCESS_OUTPUT, ProcessDefinition

from tests.chaos_harness import (
    connect,
    free_port,
    normalized_audit,
    replay_twice,
)
from tests.flow.harness import assert_exactly_once, flow_engine

PLAIN_SEEDS = list(range(10))
BROKER_SEEDS = list(range(4))


def make_chaos_flows(calls):
    """One flow exercising every step kind: a loop of plain steps, a
    deterministically failing step caught inline, a transactional
    step, and a branch on its journaled balance."""

    @step
    def work(idx, i, acc):
        calls.append(("work", idx, i, acc))
        return acc + i

    @step
    def shaky(idx, v):
        calls.append(("shaky", idx, v))
        if v % 2 == 0:
            raise ValueError("even total %d" % v)
        return v

    @transaction
    def credit(scope, key, amount):
        calls.append(("credit", key, amount))
        return scope.increment(key, amount)

    @workflow
    def order(flow, idx, n):
        total = 0
        for i in range(n):
            total = work(idx, i, total)
        try:
            bonus = shaky(idx, total)
        except StepFailure:
            bonus = 1
        bal = credit("acct:%d" % idx, total + bonus)
        if bal > 4:
            total = work(idx, 100, total)
        return {"idx": idx, "total": total, "bal": bal}

    return [order]


# ---------------------------------------------------------------------------
# plain engine topology
# ---------------------------------------------------------------------------


def run_plain_schedule(seed, tmp):
    """One full run of seed's schedule; returns its JSON trace."""
    rng = random.Random(seed)
    starts = [(0, 2 + seed % 3), (1, 3)]
    kills = sorted(rng.sample(range(1, 15), 1 + rng.randrange(3)),
                   reverse=True)
    os.makedirs(tmp, exist_ok=True)
    jp = os.path.join(tmp, "j")
    calls: list = []
    db = SimDatabase()
    totals: dict = {}

    def boot():
        engine = flow_engine(db, store_dir=jp)
        return engine, install_flows(engine, make_chaos_flows(calls),
                                     seed=seed)

    def bank(rt):
        # Counters die with each incarnation; the trace wants the
        # whole run's totals.
        for key, value in rt.counters.items():
            totals[key] = totals.get(key, 0) + value

    engine, rt = boot()
    uuids = [rt.start("order", idx, n) for idx, n in starts]
    done = 0
    while engine.step():
        done += 1
        if kills and kills[-1] == done:
            kills.pop()
            engine.crash()
            bank(rt)
            engine, rt = boot()
            engine.recover()
    bank(rt)

    results = {}
    for uuid in uuids:
        res = rt.result(uuid)
        assert res.ok, res.error
        results[uuid] = {
            "state": res.state,
            "rc": res.return_code,
            "value": res.value,
            "audit": normalized_audit(engine, uuid),
        }
    assert_exactly_once(calls)
    return {
        "uuids": uuids,
        "calls": [list(map(repr, c)) for c in calls],
        "results": results,
        "db": db.snapshot(),
        "counters": totals,
        "engine_steps": done,
    }


@pytest.mark.parametrize("seed", PLAIN_SEEDS)
def test_plain_schedule_replays_bit_identical(seed, tmp_path):
    first = replay_twice(lambda d: run_plain_schedule(seed, d), tmp_path)
    # The schedule actually resumed through at least one kill, and the
    # exactly-once invariant held through it (checked per-run above).
    assert first["counters"]["flows_completed"] == 2


def test_schedules_actually_differ():
    """The chaos matrix must not collapse onto one schedule."""
    plans = set()
    for seed in PLAIN_SEEDS:
        rng = random.Random(seed)
        plans.add(
            tuple(sorted(rng.sample(range(1, 15), 1 + rng.randrange(3))))
        )
    assert len(plans) >= 7


# ---------------------------------------------------------------------------
# durable broker topology
# ---------------------------------------------------------------------------


class BrokerTopology:
    """front --(durable socket broker)--> flowd serving the flow."""

    def __init__(self, tmp, seed, port):
        self.tmp = tmp
        self.seed = seed
        self.calls: list = []
        self.db = SimDatabase()
        self.flows = make_chaos_flows(self.calls)
        self.rt = None
        self.port = port
        self.server = self._serve()
        self.flowd_bus = connect(self.server.address, name="flowd")
        self.front_bus = connect(self.server.address, name="front")
        self.flowd = WorkflowNode(
            "flowd",
            self.flowd_bus,
            store_factory=lambda: DurableStore(os.path.join(tmp, "flowd")),
        )
        self.configure_flowd(self.flowd)
        self.front = WorkflowNode(
            "front",
            self.front_bus,
            store_factory=lambda: DurableStore(os.path.join(tmp, "front")),
            request_retries=3,
        )
        outer = ProcessDefinition(
            "Outer",
            input_spec=[VariableDecl(ARGS, DataType.STRING)],
            output_spec=[
                VariableDecl(RESULT, DataType.STRING),
                VariableDecl(ERROR, DataType.STRING),
            ],
        )
        outer.add_activity(
            self.front.remote_activity(
                "CallOrder",
                process="order",
                node="flowd",
                input_spec=[VariableDecl(ARGS, DataType.STRING)],
                output_spec=[
                    VariableDecl(RESULT, DataType.STRING),
                    VariableDecl(ERROR, DataType.STRING),
                ],
            )
        )
        outer.map_data(PROCESS_INPUT, "CallOrder", [(ARGS, ARGS)])
        outer.map_data(
            "CallOrder", PROCESS_OUTPUT, [(RESULT, RESULT), (ERROR, ERROR)]
        )
        self.front.engine.register_definition(outer)
        self.nodes = [self.front, self.flowd]

    def _serve(self):
        return BusServerThread(
            durable_dir=os.path.join(self.tmp, "broker"),
            port=self.port,
            name="bk",
        )

    def configure_flowd(self, node):
        install_scope_service(node.engine, ScopeManager(self.db))
        self.rt = install_flows(node.engine, self.flows, seed=self.seed)
        node.serve(self.flows[0].definition)

    def kill_flowd(self):
        self.flowd.crash()
        self.flowd.rebuild(self.configure_flowd)

    def bounce_broker(self):
        self.server.close()
        self.server = self._serve()

    def close(self):
        for bus in (self.front_bus, self.flowd_bus):
            try:
                bus.close()
            except Exception:
                pass
        self.server.close()

    def drive(self, iids, chaos_rounds, chaos, max_rounds=400):
        """run_cluster's rounds with chaos injection between them."""
        pending = sorted(set(chaos_rounds), reverse=True)
        for round_no in range(1, max_rounds + 1):
            progressed = pump_round(self.nodes, steps_per_round=25)
            if pending and pending[-1] == round_no:
                pending.pop()
                chaos()
                progressed = True
            if all(
                self.front.engine.instance_state(iid) == "finished"
                for iid in iids
            ):
                return round_no
            if not progressed and not _advance_to_timers(self.nodes):
                raise AssertionError("cluster deadlocked")
        raise AssertionError("cluster did not converge")


def run_broker_schedule(seed, tmp, *, bounce=False):
    rng = random.Random(1000 + seed)
    chaos_rounds = sorted(rng.sample(range(2, 10), 2))
    os.makedirs(tmp, exist_ok=True)
    topo = BrokerTopology(tmp, seed, free_port())
    try:
        iids = [
            topo.front.engine.start_process("Outer", flow_args(idx, 3))
            for idx in range(2)
        ]
        chaos = topo.bounce_broker if bounce else topo.kill_flowd
        topo.drive(iids, chaos_rounds, chaos)
        results = {}
        for idx, iid in enumerate(iids):
            out = topo.front.engine.output(iid)
            assert out[ERROR] == "", out[ERROR]
            results[str(idx)] = {
                "value": json.loads(out[RESULT]),
                "state": topo.front.engine.instance_state(iid),
            }
        assert_exactly_once(topo.calls)
        return {
            "calls": [list(map(repr, c)) for c in topo.calls],
            "results": results,
            "db": topo.db.snapshot(),
            "counters": dict(topo.rt.counters),
            "chaos_rounds": chaos_rounds,
        }
    finally:
        topo.close()


@pytest.mark.parametrize("seed", BROKER_SEEDS)
def test_broker_schedule_replays_bit_identical(seed, tmp_path):
    first = replay_twice(lambda d: run_broker_schedule(seed, d), tmp_path)
    for entry in first["results"].values():
        assert entry["state"] == "finished"
        assert entry["value"]["bal"] >= 2


def test_broker_bounce_mid_flow(tmp_path):
    """The broker itself dies and restarts over its write-ahead log
    mid-flow; the flow nodes reconnect, resume their sessions, and the
    flows still finish exactly once."""
    trace = run_broker_schedule(0, tmp_path / "a", bounce=True)
    for entry in trace["results"].values():
        assert entry["state"] == "finished"
    assert trace["counters"]["flows_completed"] == 2
