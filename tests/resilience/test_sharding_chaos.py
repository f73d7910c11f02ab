"""Sharded chaos: the saga guarantee across shard boundaries under
seeded cross-shard envelope faults plus a scheduled single-shard crash.

Each seed runs the cross-shard saga (``ShardSaga``: local step, remote
step served by the shard its request id hashes to, local finish, with
remote + local compensations on the failure edges) on a journal-backed
2-shard cluster under drop/duplicate/delay on the bus, program faults
on the subtransactions, and one scheduled ``node.pump`` crash that
takes a single shard down mid-run (recovered per shard — never a
cluster replay).  Every seed is then run a second time from scratch:
the fault trace, the database state and the outcome must be
bit-for-bit identical.

The invariant is the paper's saga guarantee (§4.1) lifted across
shards: a committed run has ``local=1, remote=1, final=1``; an aborted
run has compensated back to ``local=0`` with the remote step either
never done or undone (``remote != 1``).
"""

import pytest

from repro.errors import JournalError
from repro.resilience import FaultInjector, InjectedCrash, chaos_rules
from repro.resilience.faults import FaultRule
from repro.tx import SimDatabase
from repro.wfms.sharding import ShardedEngine
from tests.chaos_harness import replay_twice
from tests.fixtures.sharded_demo import (
    configure_sharded_saga,
    saga_outcome,
)

SHARDED_SEEDS = range(12)

#: Each seed's recorded (outcome, db snapshot, fault trace, recoveries).
#: ``replay_twice`` only compares a run with itself, so a scheduler that
#: drew its visit order from the RNG differently would still pass it;
#: this table pins the draws.
PINNED = {
    0: (
        ('committed', 1, 1, 1),
        {'final': 1, 'local': 1, 'remote': 1},
        [
            ('node.pump', 'shard-0', 'crash', 6),
        ],
        1,
    ),
    1: (
        ('committed', 1, 1, 1),
        {'final': 1, 'local': 1, 'remote': 1},
        [
            ('program', 'txn_s1', 'raise', 1),
            ('node.pump', 'shard-1', 'crash', 6),
            ('bus.send', 'replies:shard-0', 'delay', 2),
            ('program', 'txn_s3', 'raise', 4),
        ],
        1,
    ),
    2: (
        ('committed', 1, 1, 1),
        {'final': 1, 'local': 1, 'remote': 1},
        [
            ('bus.send', 'node:shard-1', 'duplicate', 1),
            ('node.pump', 'shard-0', 'crash', 6),
            ('bus.send', 'replies:shard-0', 'drop', 4),
        ],
        1,
    ),
    3: (
        ('committed', 1, 1, 1),
        {'final': 1, 'local': 1, 'remote': 1},
        [
            ('program', 'txn_s1', 'raise', 1),
            ('node.pump', 'shard-1', 'crash', 6),
            ('program', 'txn_work', 'raise', 3),
        ],
        1,
    ),
    4: (
        ('committed', 1, 1, 1),
        {'final': 1, 'local': 1, 'remote': 1},
        [
            ('program', 'txn_s1', 'raise', 1),
            ('program', 'txn_s1', 'raise', 2),
            ('node.pump', 'shard-0', 'crash', 6),
            ('bus.send', 'node:shard-1', 'drop', 1),
            ('bus.send', 'replies:shard-0', 'delay', 3),
        ],
        1,
    ),
    5: (
        ('committed', 1, 1, 1),
        {'final': 1, 'local': 1, 'remote': 1},
        [
            ('bus.send', 'replies:shard-0', 'duplicate', 2),
            ('node.pump', 'shard-0', 'crash', 6),
            ('bus.send', 'replies:shard-0', 'drop', 4),
        ],
        1,
    ),
    6: (
        ('committed', 1, 1, 1),
        {'final': 1, 'local': 1, 'remote': 1},
        [
            ('program', 'txn_work', 'raise', 2),
            ('node.pump', 'shard-1', 'crash', 6),
        ],
        1,
    ),
    7: (
        ('aborted', 0, 0, None),
        {'local': 0, 'remote': 0},
        [
            ('bus.send', 'node:shard-1', 'drop', 1),
            ('node.pump', 'shard-1', 'crash', 6),
            ('bus.send', 'node:shard-1', 'delay', 2),
            ('bus.send', 'replies:shard-0', 'drop', 3),
            ('program', 'txn_undo', 'raise', 3),
            ('program', 'txn_undo', 'raise', 4),
        ],
        1,
    ),
    8: (
        ('aborted', 0, 0, None),
        {'local': 0, 'remote': 0},
        [
            ('program', 'txn_s1', 'raise', 1),
            ('bus.send', 'node:shard-1', 'drop', 1),
            ('node.pump', 'shard-1', 'crash', 6),
            ('bus.send', 'node:shard-1', 'drop', 2),
            ('bus.send', 'replies:shard-0', 'delay', 4),
            ('program', 'txn_c1', 'raise', 4),
        ],
        1,
    ),
    9: (
        ('committed', 1, 1, 1),
        {'final': 1, 'local': 1, 'remote': 1},
        [
            ('bus.send', 'node:shard-1', 'duplicate', 1),
            ('program', 'txn_work', 'raise', 2),
            ('node.pump', 'shard-1', 'crash', 6),
            ('bus.send', 'node:shard-1', 'duplicate', 2),
        ],
        1,
    ),
    10: (
        ('committed', 1, 1, 1),
        {'final': 1, 'local': 1, 'remote': 1},
        [
            ('node.pump', 'shard-1', 'crash', 6),
            ('bus.send', 'node:shard-1', 'delay', 2),
        ],
        1,
    ),
    11: (
        ('committed', 1, 1, 1),
        {'final': 1, 'local': 1, 'remote': 1},
        [
            ('bus.send', 'replies:shard-0', 'duplicate', 2),
            ('node.pump', 'shard-1', 'crash', 6),
        ],
        1,
    ),
}


def make_injector(seed):
    """Cross-shard envelope chaos + subtransaction faults + one
    scheduled pump crash.  Program-fault max_fires stays below the
    saga programs' retry budget so faults are absorbed by retries, and
    aborts only arise from the forward call's tight timeout budget."""
    rules = chaos_rules(
        program_p=0.25,
        drop_p=0.35,
        duplicate_p=0.2,
        delay_p=0.2,
        max_fires=2,
    )
    rules.append(
        FaultRule("node.pump", "crash", match="shard-*", schedule={6})
    )
    return FaultInjector(seed=seed, rules=rules)


def run_sharded_saga_chaos(seed, directory):
    """One cross-shard saga under chaos; returns
    (outcome, db_snapshot, trace, recoveries)."""
    directory.mkdir(parents=True, exist_ok=True)
    db = SimDatabase()
    injector = make_injector(seed)
    sharded = ShardedEngine(
        2,
        journal_dir=directory,
        fault_injector=injector,
        seed=seed,
        poll_interval=1.0,
    )
    configure_sharded_saga(sharded, db)
    iid = sharded.start_process("ShardSaga")
    recoveries = 0
    for __ in range(40):
        try:
            sharded.run()
            break
        except (InjectedCrash, JournalError):
            recoveries += len(sharded.recover())
    else:
        pytest.fail("sharded chaos run did not converge")
    assert sharded.instance_state(iid) == "finished"
    return saga_outcome(db), db.snapshot(), injector.trace(), recoveries


class TestShardedSagaChaos:
    @pytest.mark.parametrize("seed", SHARDED_SEEDS)
    def test_guarantee_holds_and_replay_is_identical(self, seed, tmp_path):
        # Replayable chaos: the second run saw the same faults in the
        # same order and ended in the same state.
        result = replay_twice(
            lambda d: run_sharded_saga_chaos(seed, d), tmp_path
        )
        assert result == PINNED[seed]
        outcome, __, trace, recoveries = result
        verdict, local, remote, final = outcome
        if verdict == "committed":
            assert (local, remote, final) == (1, 1, 1)
        else:
            assert local == 0 and remote != 1 and final != 1

        # The schedule fired: exactly one shard crashed and recovered.
        assert recoveries == 1
        assert any(site == "node.pump" for site, __, __, __ in trace)

    def test_seed_mix_exercises_both_outcomes(self, tmp_path):
        """The chaos parameters are tuned so the sweep reaches commits
        *and* compensated aborts — a suite that only ever commits
        proves nothing about the compensation path."""
        verdicts = set()
        for seed in SHARDED_SEEDS:
            outcome, __, __, __ = run_sharded_saga_chaos(
                seed, tmp_path / ("s%d" % seed)
            )
            verdicts.add(outcome[0])
        assert verdicts == {"committed", "aborted"}
