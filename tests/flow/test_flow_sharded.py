"""Decorated flows on the sharded engine: partitioned execution,
shared scope service, and per-shard crash/recover mid-flow."""

import pytest

from repro.core.scoped import SCOPE_SERVICE
from repro.flow import (
    StepFailure,
    flow_args,
    flow_result,
    install_flows,
    step,
    transaction,
    workflow,
)
from repro.tx import ScopeManager, SimDatabase
from repro.wfms.sharding import ShardedEngine

from tests.flow.harness import assert_exactly_once


def make_flows(calls):
    @step
    def add(tag, a, b):
        calls.append(("add", tag, a, b))
        return a + b

    @transaction
    def credit(scope, key, amount):
        calls.append(("credit", key, amount))
        return scope.increment(key, amount)

    @workflow
    def chain(flow, tag, n):
        total = 0
        for i in range(n):
            total = add(tag, total, i)
        bal = credit("acct:%s" % tag, total)
        return {"tag": tag, "total": total, "bal": bal}

    return [chain]


def build_cluster(tmp_path, shards, calls, db):
    sharded = ShardedEngine(shards, store_dir=tmp_path, seed=5)
    sharded.install_service(SCOPE_SERVICE, ScopeManager(db))
    flows = make_flows(calls)
    runtimes = {}

    def setup(node):
        runtimes[node.name] = install_flows(node.engine, flows, seed=7)

    sharded.configure(setup)
    return sharded, runtimes


class TestShardedFlows:
    def test_flows_partition_and_complete(self, tmp_path):
        calls: list = []
        db = SimDatabase()
        sharded, runtimes = build_cluster(tmp_path, 3, calls, db)
        ids = [
            sharded.start_process("chain", flow_args("t%d" % i, 3))
            for i in range(9)
        ]
        # The batch must actually straddle shards for this to test
        # partitioned execution.
        owners = {sharded.shard_index_for_root(iid) for iid in ids}
        assert len(owners) > 1
        sharded.run()
        for i, iid in enumerate(ids):
            result = flow_result(sharded.result(iid))
            assert result.ok
            assert result.value == {"tag": "t%d" % i, "total": 3, "bal": 3}
            assert db.get("acct:t%d" % i) == 3
        assert_exactly_once(calls)
        # Every shard that owned flows drove steps through its own
        # runtime (starts went through the cluster facade, so the
        # per-runtime signal is executed steps, not starts).
        active = [
            r for r in runtimes.values() if r.counters["steps_executed"]
        ]
        assert len(active) == len(owners)
        assert (
            sum(r.counters["steps_executed"] for r in runtimes.values())
            == 9 * 4
        )

    def test_shard_crash_mid_flow_resumes_exactly_once(self, tmp_path):
        calls: list = []
        db = SimDatabase()
        sharded, runtimes = build_cluster(tmp_path, 3, calls, db)
        ids = [
            sharded.start_process("chain", flow_args("t%d" % i, 4))
            for i in range(6)
        ]
        victim = sharded.shard_index_for_root(ids[0])
        # A few rounds in, the victim shard dies mid-flow.
        for __ in range(2):
            sharded.pump_round()
        sharded.crash_shard(victim)
        assert sharded.crashed_shards() == [victim]
        assert sharded.recover() == [victim]
        sharded.run()
        for i, iid in enumerate(ids):
            result = flow_result(sharded.result(iid))
            assert result.ok, result.error
            assert result.value["bal"] == 6
            assert db.get("acct:t%d" % i) == 6
        assert_exactly_once(calls)
        # The rebuilt shard's runtime resumed (not restarted) whatever
        # it had already journaled.
        rebuilt = runtimes["shard-%d" % victim]
        assert rebuilt.counters["flows_started"] == 0
        assert rebuilt.counters["steps_replayed_resume"] >= 0

    def test_step_failure_semantics_survive_sharding(self, tmp_path):
        calls: list = []
        db = SimDatabase()
        sharded = ShardedEngine(2, store_dir=tmp_path, seed=1)
        sharded.install_service(SCOPE_SERVICE, ScopeManager(db))

        @step
        def explode():
            calls.append("explode")
            raise RuntimeError("no")

        @workflow
        def fragile(flow):
            try:
                explode()
            except StepFailure as exc:
                return exc.error_type
            return "unreachable"

        sharded.configure(
            lambda node: install_flows(node.engine, [fragile], seed=2)
        )
        ids = [
            sharded.start_process("fragile", flow_args()) for __ in range(4)
        ]
        sharded.run()
        for iid in ids:
            assert flow_result(sharded.result(iid)).value == "RuntimeError"
        assert calls == ["explode"] * 4

    def test_missing_args_fail_the_flow_not_the_engine(self, tmp_path):
        # chain() requires tag and n: starting without them surfaces
        # as a failed flow (rc + _ERROR), not silent corruption.
        calls: list = []
        db = SimDatabase()
        sharded, __ = build_cluster(tmp_path, 2, calls, db)
        iid = sharded.start_process("chain", flow_args())
        sharded.run()
        result = flow_result(sharded.result(iid))
        assert not result.ok
        assert "TypeError" in result.error
