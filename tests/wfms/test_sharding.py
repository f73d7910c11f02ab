"""Sharded execution: partitioning, cross-shard calls, deterministic
scheduling, per-shard recovery and merged monitoring."""

import pytest

from repro.errors import NavigationError, WorkflowError
from repro.obs import RequestTimedOut
from repro.store import DurableStore
from repro.wfms import (
    ANY_SHARD,
    Activity,
    DataType,
    Engine,
    ProcessDefinition,
    ShardedEngine,
    VariableDecl,
    shard_of,
)
from repro.wfms.model import PROCESS_INPUT, PROCESS_OUTPUT
from tests.fixtures.sharded_demo import configure_sharded_math


def register_flow(sharded_or_engine):
    """A one-activity local process, registered either on an Engine or
    on every shard of a ShardedEngine."""
    definition = ProcessDefinition(
        "Flow",
        input_spec=[VariableDecl("N", DataType.LONG)],
        output_spec=[VariableDecl("Out", DataType.LONG)],
    )
    definition.add_activity(
        Activity(
            "A",
            program="copy",
            input_spec=[VariableDecl("N", DataType.LONG)],
            output_spec=[VariableDecl("Out", DataType.LONG)],
        )
    )
    definition.map_data(PROCESS_INPUT, "A", [("N", "N")])
    definition.map_data("A", PROCESS_OUTPUT, [("Out", "Out")])

    def copy(ctx):
        ctx.set_output("Out", ctx.get_input("N"))
        return 0

    if isinstance(sharded_or_engine, ShardedEngine):
        sharded_or_engine.register_program("copy", copy, replace=True)
        sharded_or_engine.register_definition(definition)
    else:
        sharded_or_engine.register_program("copy", copy)
        sharded_or_engine.register_definition(definition)
    return definition


class TestPartitioning:
    def test_shard_of_is_stable_and_in_range(self):
        for key in ("pi-000001", "req/shard-1/pi-000002/CallWork", "x"):
            first = shard_of(key, 4)
            assert first == shard_of(key, 4)
            assert 0 <= first < 4

    def test_shard_of_rejects_empty_cluster(self):
        with pytest.raises(WorkflowError):
            shard_of("k", 0)

    def test_keys_spread_across_shards(self):
        owners = {shard_of("pi-%06d" % n, 4) for n in range(1, 64)}
        assert owners == {0, 1, 2, 3}

    def test_request_ids_hash_like_their_served_roots(self):
        """A served instance (``req/<request_id>``) must live on the
        shard its request id routed to."""
        sharded = ShardedEngine(4)
        request_id = "shard-2/pi-000007/CallDouble"
        served_root = "req/" + request_id
        assert sharded.shard_index_for_root(served_root) == shard_of(
            request_id, 4
        )
        assert sharded.shard_name_for_key(request_id) == (
            "shard-%d" % shard_of(request_id, 4)
        )


class TestShardedExecution:
    def test_batch_finishes_spread_over_all_shards(self):
        sharded = ShardedEngine(4, seed=1)
        register_flow(sharded)
        ids = [
            sharded.start_process("Flow", {"N": n}) for n in range(24)
        ]
        assert len(set(ids)) == 24
        sharded.run()
        for n, iid in enumerate(ids):
            assert sharded.instance_state(iid) == "finished"
            assert sharded.output(iid)["Out"] == n
        populated = [
            row
            for row in sharded.snapshot()["shards"]
            if row["live_instances"]
        ]
        assert len(populated) == 4

    def test_cross_shard_request_reply(self):
        """Front's remote call targets ANY_SHARD; the serving shard is
        picked by the partition rule and the reply routes home."""
        sharded = ShardedEngine(4, seed=3)
        configure_sharded_math(sharded)
        ids = {
            sharded.start_process("Front", {"N": n}): n for n in range(10)
        }
        sharded.run()
        for iid, n in ids.items():
            assert sharded.output(iid)["Final"] == 2 * n + 1

    def test_each_request_is_served_exactly_once(self):
        sharded = ShardedEngine(3, seed=5)
        configure_sharded_math(sharded)
        ids = [sharded.start_process("Front", {"N": n}) for n in range(8)]
        sharded.run()
        served = [
            row
            for row in sharded.process_list()
            if row["instance"].startswith("req/")
        ]
        assert len(served) == len(ids)
        assert all(row["state"] == "finished" for row in served)
        # ...and each served instance sits on its hash-selected shard.
        for row in served:
            owner = sharded.shards[
                sharded.shard_index_for_root(row["instance"])
            ]
            assert row["instance"] in owner.engine.navigator.instance_ids()

    def test_unknown_instance_raises(self):
        sharded = ShardedEngine(2)
        with pytest.raises(NavigationError, match="searched 2 shards"):
            sharded.instance_state("pi-999999")

    def test_snapshot_shape(self):
        sharded = ShardedEngine(2, seed=9)
        register_flow(sharded)
        sharded.start_process("Flow", {"N": 1})
        sharded.run()
        snapshot = sharded.snapshot()
        assert snapshot["num_shards"] == 2
        assert snapshot["seed"] == 9
        assert [row["name"] for row in snapshot["shards"]] == [
            "shard-0",
            "shard-1",
        ]
        for row in snapshot["shards"]:
            assert row["crashed"] is False
            assert set(row["queues"]) == {"inbox", "replies", "dlq"}
            assert set(row["scheduler"]) == {"ready", "delayed"}
            assert row["store"] == {"enabled": False}


class TestRouting:
    def test_timeout_events_name_the_resolved_shard(self):
        """``RequestTimedOut.remote`` is the node the request was
        addressed to: the shard :data:`ANY_SHARD` resolved to, never
        the sentinel itself."""
        sharded = ShardedEngine(
            3,
            seed=1,
            observability=True,
            request_timeout=2.0,
            request_retries=1,
        )
        configure_sharded_math(sharded)
        ids = [sharded.start_process("Front", {"N": n}) for n in range(6)]
        owner = sharded.shard_index_for_root(ids[0])
        events = []
        sharded.shards[owner].obs.hooks.subscribe(
            RequestTimedOut, events.append
        )
        for index in range(3):
            if index != owner:
                sharded.crash_shard(index)
        sharded.run(max_rounds=200)
        requester = "shard-%d" % owner
        request_id = "%s/%s/CallDouble" % (requester, ids[0])
        target = sharded.shard_name_for_key(request_id)
        assert target not in (requester, ANY_SHARD)
        assert [
            (e.node, e.remote, e.request_id, e.action) for e in events
        ] == [
            (requester, target, request_id, "resent"),
            (requester, target, request_id, "escalated"),
        ]


class TestDeterminism:
    def _trace(self, seed):
        sharded = ShardedEngine(4, seed=seed)
        configure_sharded_math(sharded)
        for n in range(12):
            sharded.start_process("Front", {"N": n})
        rounds = sharded.run()
        rows = [
            (row["instance"], row["state"])
            for row in sharded.process_list()
        ]
        return rounds, rows, sharded.clocks

    def test_same_seed_same_schedule(self):
        assert self._trace(11) == self._trace(11)

    def test_runs_converge_for_many_seeds(self):
        for seed in range(6):
            rounds, rows, __ = self._trace(seed)
            assert rounds >= 1
            assert all(state == "finished" for __, state in rows)


class TestPerShardRecovery:
    def test_one_shard_recovers_without_cluster_replay(self, tmp_path):
        sharded = ShardedEngine(3, store_dir=tmp_path, seed=2)
        register_flow(sharded)
        ids = [
            sharded.start_process("Flow", {"N": n}) for n in range(12)
        ]
        sharded.run()
        victim = 1
        survivors = {
            index: sharded.shards[index].engine
            for index in range(3)
            if index != victim
        }
        sharded.crash_shard(victim)
        assert sharded.crashed_shards() == [victim]
        assert sharded.recover() == [victim]
        # Healthy shards kept their very engine objects — recovery
        # rebuilt one shard, not the cluster.
        for index, engine in survivors.items():
            assert sharded.shards[index].engine is engine
        for iid in ids:
            assert sharded.instance_state(iid) == "finished"

    def test_crashed_shard_is_skipped_by_queries(self, tmp_path):
        sharded = ShardedEngine(2, store_dir=tmp_path)
        register_flow(sharded)
        ids = [sharded.start_process("Flow", {"N": n}) for n in range(8)]
        sharded.run()
        sharded.crash_shard(0)
        remaining = sharded.process_list()
        assert all(
            sharded.shard_index_for_root(row["instance"]) == 1
            for row in remaining
        )
        on_crashed = [
            iid for iid in ids if sharded.shard_index_for_root(iid) == 0
        ]
        assert on_crashed  # the batch straddles both shards
        with pytest.raises(NavigationError):
            sharded.instance_state(on_crashed[0])
        sharded.recover()
        assert sharded.instance_state(on_crashed[0]) == "finished"

    def test_running_with_every_shard_down_raises(self, tmp_path):
        sharded = ShardedEngine(2, store_dir=tmp_path)
        register_flow(sharded)
        sharded.crash()
        with pytest.raises(WorkflowError, match="every shard is crashed"):
            sharded.run()


class TestMonitoringIndexes:
    """Engine.process_list/account stay O(live + matching) — backed by
    the navigator's state/definition indexes and the archive."""

    def _store_engine(self, tmp_path):
        engine = Engine(store=DurableStore(tmp_path / "store"))
        register_flow(engine)
        return engine

    def test_process_list_filters_by_state_and_definition(self):
        engine = Engine()
        register_flow(engine)
        finished = engine.start_process("Flow", {"N": 1})
        engine.run()
        live = engine.start_process("Flow", {"N": 2})
        assert {
            row["instance"] for row in engine.process_list(state="finished")
        } == {finished}
        assert {
            row["instance"] for row in engine.process_list(state="running")
        } == {live}
        assert engine.process_list(definition="Nope") == []
        assert len(engine.process_list(definition="Flow")) == 2

    def test_process_list_reaches_archived_roots(self, tmp_path):
        engine = self._store_engine(tmp_path)
        iid = engine.start_process("Flow", {"N": 5})
        engine.run()
        assert iid not in engine.navigator.instance_ids()  # evicted
        assert engine.process_list(state="finished") == []
        rows = engine.process_list(include_archived=True)
        assert [row["instance"] for row in rows] == [iid]
        assert rows[0]["archived"] is True
        assert rows[0]["state"] == "finished"
        assert (
            engine.process_list(
                include_archived=True, definition="Nope"
            )
            == []
        )

    def test_account_falls_back_to_the_archive(self, tmp_path):
        engine = self._store_engine(tmp_path)
        iid = engine.start_process("Flow", {"N": 5})
        engine.run()
        account = engine.account(iid, program_rates={"copy": 2.0})
        assert account["lines"]["copy"]["invocations"] == 1
        assert account["lines"]["copy"]["cost"] == 2.0
        with pytest.raises(NavigationError):
            engine.account("pi-does-not-exist")

    def test_navigator_indexes_follow_state_changes(self):
        engine = Engine()
        register_flow(engine)
        iid = engine.start_process("Flow", {"N": 1})
        navigator = engine.navigator
        assert iid in navigator.instance_ids(state="running")
        engine.suspend(iid)
        assert iid in navigator.instance_ids(state="suspended")
        assert iid not in navigator.instance_ids(state="running")
        engine.resume(iid)
        engine.run()
        assert iid in navigator.instance_ids(state="finished")
        assert navigator.instance_ids(
            state="finished", definition="Flow"
        ) == [iid]
        assert navigator.queue_depths() == {"ready": 0, "delayed": 0}


class TestShardsMonitorView:
    def test_render_shards_from_snapshot_json(self, tmp_path, capsys):
        import json

        from repro.tools.monitor import main, render_shards

        sharded = ShardedEngine(2, seed=4)
        configure_sharded_math(sharded)
        for n in range(6):
            sharded.start_process("Front", {"N": n})
        sharded.run()
        snapshot = json.loads(json.dumps(sharded.snapshot()))
        lines = render_shards(snapshot)
        text = "\n".join(lines)
        assert "SHARDS (2) | scheduler seed 4" in text
        assert "shard-0" in text and "shard-1" in text
        assert "BUS (" in text and "dead-lettered 0" in text

        path = tmp_path / "shards.json"
        path.write_text(json.dumps(snapshot))
        assert main(["shards", str(path)]) == 0
        assert "SHARDS (2)" in capsys.readouterr().out
