"""SHARD — sharded-engine throughput.

The in-process :class:`~repro.wfms.sharding.ShardedEngine` partitions
the same large-N workload as ``bench_engine_throughput`` (200 roots of
a 3x3 DAG) over N shards under the deterministic round-robin pump —
measuring partitioning/pump overhead against the single-engine
``engine.concurrent_200x3x3`` metric.

Shared with ``compare.py`` (the ``engine.sharded_200x3x3`` metric).
"""

from repro.wfms.sharding import ShardedEngine, shard_of
from repro.workloads.generator import DAG_PROGRAM, random_dag_process

SHARDED_INSTANCES = 200
SHARDED_SHAPE = (3, 3)
SHARDED_SEED = 9
SHARDED_SHARDS = 4


def sharded_definition():
    layers, width = SHARDED_SHAPE
    return random_dag_process(layers=layers, width=width, seed=SHARDED_SEED)


def _dag_work(ctx) -> int:
    return 0


def sharded_setup(num_shards=SHARDED_SHARDS):
    """An in-process ShardedEngine with the concurrent DAG registered
    on every shard (shared with compare.py)."""
    definition = sharded_definition()
    sharded = ShardedEngine(num_shards, steps_per_slice=50)

    def configure(node):
        node.engine.register_program(DAG_PROGRAM, _dag_work, replace=True)
        if definition.name not in node.engine.definitions():
            node.engine.register_definition(definition)

    sharded.configure(configure)
    return sharded, definition


def run_sharded_batch(sharded, definition, count=SHARDED_INSTANCES):
    ids = [sharded.start_process(definition.name) for __ in range(count)]
    sharded.run()
    return ids


def test_sharded_batch_matches_single_engine(benchmark):
    """Every root finishes, spread over all shards."""

    def run_batch():
        sharded, definition = sharded_setup()
        return sharded, run_sharded_batch(sharded, definition)

    sharded, ids = benchmark(run_batch)
    assert len(ids) == SHARDED_INSTANCES
    assert all(sharded.instance_state(i) == "finished" for i in ids)
    owners = {shard_of(i, SHARDED_SHARDS) for i in ids}
    assert owners == set(range(SHARDED_SHARDS))
