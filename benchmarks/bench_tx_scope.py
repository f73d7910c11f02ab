"""SCOPE — cross-activity transaction scopes over the tx substrate.

* **One scope beats N subtransactions.**  A scoped chain runs all its
  steps inside a single ``repro.tx`` transaction (one BEGIN, one
  COMMIT, locks acquired once), where the per-activity translation
  pays a full begin/commit cycle per step.  The table reports both,
  over identical write workloads, and asserts the final states agree.

Scope support costs scope-less workflows one ``dict.get`` of the
``tx_scopes`` service at root-instance finish; ``compare.py``'s
``engine.dag_8x8`` row gates that.
"""

import time

from repro.tx import ScopeManager, SimDatabase, Subtransaction
from repro.tx.subtransaction import write_value

from _helpers import print_table

#: Steps per chain (writes inside the scope / subtransactions).
CHAIN_STEPS = 8
#: Scope operations one chain performs: begin + savepoint + writes +
#: commit — the unit behind ``tx.scope_chain.ops_per_sec``.
OPS_PER_CHAIN = CHAIN_STEPS + 3


def run_scoped_chain(manager, root, marker):
    scope = manager.begin(root)
    scope.savepoint("sp")
    for step in range(CHAIN_STEPS):
        scope.write("k%d" % step, marker)
    scope.commit()


def run_per_activity_chain(db, marker):
    for step in range(CHAIN_STEPS):
        outcome = Subtransaction(
            "t%d" % step, db, write_value("k%d" % step, marker)
        ).execute()
        assert outcome.committed


def scope_chain_throughput(chains=200):
    """scope ops/sec over ``chains`` sequential scoped chains.

    This is the hot path of every scoped saga: handle registry,
    logical-clock tick, strict-2PL acquisition and WAL logging per
    write, savepoint watermark, commit.  ``compare.py`` gates it.
    """
    db = SimDatabase()
    manager = ScopeManager(db)
    start = time.perf_counter()
    for i in range(chains):
        run_scoped_chain(manager, "root-%d" % i, i)
    elapsed = time.perf_counter() - start
    return chains * OPS_PER_CHAIN / elapsed


def test_scope_vs_per_activity_cost():
    """The amortisation claim: one transaction per chain instead of
    one per step, same final state."""
    chains = 100
    rows = []

    scoped_db = SimDatabase()
    manager = ScopeManager(scoped_db)
    start = time.perf_counter()
    for i in range(chains):
        run_scoped_chain(manager, "root-%d" % i, i)
    scoped = time.perf_counter() - start

    plain_db = SimDatabase()
    start = time.perf_counter()
    for i in range(chains):
        run_per_activity_chain(plain_db, i)
    plain = time.perf_counter() - start

    assert scoped_db.snapshot() == plain_db.snapshot()
    # One commit per chain vs one per step: 1 + steps*(begin+commit).
    rows.append(
        ("scoped (1 txn/chain)", chains, "%.1f" % (chains / scoped))
    )
    rows.append(
        ("per-activity (%d txn/chain)" % CHAIN_STEPS, chains,
         "%.1f" % (chains / plain))
    )
    print_table(
        "SCOPE: %d-step chain, scoped vs per-activity" % CHAIN_STEPS,
        ["variant", "chains", "chains/sec"],
        rows,
    )


def test_scope_chain_throughput(benchmark):
    db = SimDatabase()
    manager = ScopeManager(db)
    counter = iter(range(1_000_000))

    def one_chain():
        i = next(counter)
        run_scoped_chain(manager, "root-%d" % i, i)

    benchmark(one_chain)
    assert db.get("k0") is not None
    assert db.active_transactions() == []
