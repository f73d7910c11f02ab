"""The chaos suite: the paper's guarantees under seeded fault schedules.

Every scenario is driven by a :class:`FaultInjector` with a seeded
RNG, run to convergence through crash/recover loops, and then **run a
second time from scratch with the same seed** — the fault trace and
the outcome must be bit-for-bit identical (replayable chaos).

Invariants asserted:

* **saga** (§4.1): every execution is either complete forward
  execution ``T1..Tn`` or a prefix with an ordered compensation suffix
  ``T1..Tj; Cj..C1`` (``verify_saga_guarantee``), with the database
  state matching; journal faults degrade the engine but never corrupt
  the durable prefix, so recovery always converges.
* **flexible** (§4.2): retriable members eventually commit (they are
  never dead), compensated members leave no effects, a committed
  execution commits exactly one declared path.
* **distributed**: under message drop/duplicate/delay plus a node
  crash, the request/reply protocol converges to the right answer
  with exactly one served instance (no duplicate effects).
* **durable store**: the saga scenario on a checkpointing store
  (checkpoints, compaction, archive, torn snapshot and compaction
  writes) behaves exactly like the full-replay run of its seed.
"""

import pytest

from repro.core.bindings import register_programs, workflow_outcome
from repro.core.flexible_translator import FLEX_ABORT_RC, translate_flexible
from repro.core.saga_translator import SAGA_ABORT_RC, translate_saga
from repro.core.sagas import SagaSpec, SagaStep, verify_saga_guarantee
from repro.resilience import (
    FaultInjector,
    FaultRule,
    RetryPolicy,
    chaos_rules,
    flexible_retry_policies,
)
from repro.store import DurableStore
from repro.tx import SimDatabase, Subtransaction
from repro.tx.subtransaction import write_value
from repro.wfms.engine import Engine
from repro.wfms.messaging import MessageBus
from repro.workloads.banking import fig3_bindings, fig3_spec
from repro.workloads.distributed_demo import (
    configure_requester,
    configure_worker,
    make_requester,
    make_worker,
)
from tests.chaos_harness import (
    converge_cluster,
    converge_engine,
    replay_twice,
    served,
)

SAGA_SEEDS = range(20)
FLEX_SEEDS = range(12)
DIST_SEEDS = range(8)
STORE_SEEDS = range(8)
SNAPSHOT_TEAR_SEEDS = range(3)
COMPACT_TEAR_SEEDS = range(3)

SAGA = SagaSpec("chaos", [SagaStep(n) for n in ("t1", "t2", "t3", "t4")])


# ---------------------------------------------------------------------------
# saga workload, on a full-replay store or a checkpointing one
# ---------------------------------------------------------------------------


def full_replay_engine(directory, injector):
    """No checkpoint policy: recovery replays the whole journal."""
    return Engine(
        store=DurableStore(directory / "saga"), fault_injector=injector
    )


def store_engine(directory, injector):
    """Checkpoints every 3 records, compaction after each checkpoint,
    finished roots archived."""
    return Engine(
        store=DurableStore(
            str(directory / "store"), checkpoint_every_records=3
        ),
        fault_injector=injector,
    )


def run_saga_chaos(
    seed, directory, make_engine=full_replay_engine, extra_rules=()
):
    """One saga under program + journal chaos (plus ``extra_rules``) on
    the engines ``make_engine(directory, injector)`` builds; returns
    (outcome, db state, fault trace, archived roots)."""
    directory.mkdir(parents=True, exist_ok=True)
    translation = translate_saga(SAGA)
    db = SimDatabase()
    # idempotent bodies: journal faults can force a completed action to
    # re-execute after recovery (at-least-once), so effects are writes
    # of absolute values, not increments
    actions = {
        s.name: Subtransaction(s.name, db, write_value(s.name, 1))
        for s in SAGA.steps
    }
    comps = {
        s.name: Subtransaction("c" + s.name, db, write_value(s.name, 0))
        for s in SAGA.steps
    }
    injector = FaultInjector(
        chaos_rules(program_p=0.25, journal_p=0.05, max_fires=3)
        + list(extra_rules),
        seed=seed,
    )

    def build():
        engine = make_engine(directory, injector)
        register_programs(engine, translation, actions, comps)
        engine.register_definition(translation.process)
        for step in SAGA.steps:
            engine.set_retry(
                "txn_%s" % step.name,
                RetryPolicy(
                    2,
                    backoff="fixed",
                    base_delay=1.0,
                    escalate_rc=SAGA_ABORT_RC,
                ),
            )
        return engine

    # a disk/snapshot/compaction fault degrades the engine; recovery
    # resumes from the durable prefix (or latest checkpoint + suffix)
    engine, iid = converge_engine(
        build, lambda e: e.start_process(translation.process_name)
    )
    assert engine.instance_state(iid) == "finished"
    outcome = workflow_outcome(engine, translation, iid)
    archived = engine.store_status().get("archived_roots")
    engine.close()
    return outcome, db.snapshot(), injector.trace(), archived


def assert_saga_effects(outcome, db):
    if outcome.committed:
        assert all(db.get(s) == 1 for s in outcome.executed)
    else:
        # compensated steps left no effects
        assert all(db.get(s) == 0 for s in outcome.compensated)


@pytest.mark.parametrize("seed", SAGA_SEEDS)
def test_saga_guarantee_under_chaos(seed, tmp_path):
    # replayable chaos: same seed, fresh everything => same trace and
    # same outcome
    outcome, db, __, __ = replay_twice(
        lambda d: run_saga_chaos(seed, d), tmp_path
    )

    # the paper's guarantee: T1..Tn, or T1..Tj with Cj..C1
    assert verify_saga_guarantee(SAGA, outcome.executed, outcome.compensated)
    if outcome.committed:
        assert outcome.executed == ["t1", "t2", "t3", "t4"]
    assert_saga_effects(outcome, db)


@pytest.mark.parametrize("seed", STORE_SEEDS)
def test_store_chaos_matches_plain_journal_run(seed, tmp_path):
    """The tentpole guarantee: a checkpointing run (checkpoints +
    compaction + archive) is *trace- and outcome-identical* to the
    full-replay run (a store with no checkpoint policy) of the same
    seed — durability machinery changes recovery cost, never
    behaviour."""
    # replayable against itself: same seed => same everything
    outcome, db, faults, archived = replay_twice(
        lambda d: run_saga_chaos(seed, d, store_engine), tmp_path
    )
    assert verify_saga_guarantee(SAGA, outcome.executed, outcome.compensated)
    assert_saga_effects(outcome, db)
    # the finished saga was archived out of live memory
    assert archived == 1

    # bit-identical to the no-checkpoint run of the same seed
    plain = run_saga_chaos(seed, tmp_path / "plain")
    assert plain[:3] == (outcome, db, faults)


@pytest.mark.parametrize("seed", SNAPSHOT_TEAR_SEEDS)
def test_store_chaos_survives_torn_snapshots(seed, tmp_path):
    """Crash *during* checkpoint write: the torn snapshot is skipped,
    recovery falls back to an older one, the saga guarantee holds and
    the outcome still matches the plain run (the extra scheduled fault
    consumes no RNG, so program/journal chaos is unchanged)."""
    tear = FaultRule("snapshot.write", schedule={2})
    outcome, db, faults, __ = run_saga_chaos(
        seed, tmp_path / "store", store_engine, [tear]
    )
    assert verify_saga_guarantee(SAGA, outcome.executed, outcome.compensated)
    plain = run_saga_chaos(seed, tmp_path / "plain")
    assert plain[:2] == (outcome, db)
    # the store run saw exactly one extra fired fault: the torn write
    assert len([f for f in faults if f[0] == "snapshot.write"]) <= 1


@pytest.mark.parametrize("seed", COMPACT_TEAR_SEEDS)
def test_store_chaos_survives_aborted_compaction(seed, tmp_path):
    """Crash *during* compaction (before its manifest commit): the old
    manifest still governs, nothing is lost, outcomes match plain."""
    tear = FaultRule("compact", schedule={2})
    outcome, db, __, __ = run_saga_chaos(
        seed, tmp_path / "store", store_engine, [tear]
    )
    assert verify_saga_guarantee(SAGA, outcome.executed, outcome.compensated)
    plain = run_saga_chaos(seed, tmp_path / "plain")
    assert plain[:2] == (outcome, db)


# ---------------------------------------------------------------------------
# flexible workload
# ---------------------------------------------------------------------------


def run_flexible_chaos(seed):
    """Figure 3's flexible transaction under program chaos; returns
    (outcome, db state, fault trace)."""
    spec = fig3_spec()
    db = SimDatabase()
    actions, comps = fig3_bindings(db)
    translation = translate_flexible(spec)
    injector = FaultInjector(
        chaos_rules(program_p=0.2, max_fires=3), seed=seed
    )
    engine = Engine(fault_injector=injector)
    register_programs(engine, translation, actions, comps)
    engine.register_definition(translation.process)
    # §4.2 typing: retriable members get a budget that outlasts the
    # fault cap; pivots/compensatables escalate into the abort path
    for program, policy in flexible_retry_policies(
        spec, abort_rc=FLEX_ABORT_RC, base_delay=1.0
    ).items():
        engine.set_retry(program, policy)
    iid = engine.start_process(translation.process_name)
    engine.drain()
    assert engine.instance_state(iid) == "finished"
    outcome = workflow_outcome(engine, translation, iid)
    return outcome, db.snapshot(), injector.trace()


@pytest.mark.parametrize("seed", FLEX_SEEDS)
def test_flexible_guarantee_under_chaos(seed, tmp_path):
    # replayable chaos
    outcome, db, __ = replay_twice(
        lambda __: run_flexible_chaos(seed), tmp_path
    )
    spec = fig3_spec()

    # "retriable transactions will eventually commit if retried a
    # sufficient number of times": a retriable member is never dead
    assert all(not spec.members[name].retriable for name in outcome.dead)
    if outcome.committed:
        # exactly one declared path committed, all its effects present
        assert outcome.committed_path in spec.paths
        assert set(outcome.committed_members) == set(outcome.committed_path)
        assert all(db.get(m) == 1 for m in outcome.committed_members)
    # compensated members leave no effects behind
    assert all(db.get(m) == 0 for m in outcome.compensated)


# ---------------------------------------------------------------------------
# distributed workload
# ---------------------------------------------------------------------------


def run_distributed_chaos(seed, directory):
    """Request/reply across two nodes under bus chaos plus one forced
    node crash; returns (result, served instances, fault trace)."""
    directory.mkdir(parents=True, exist_ok=True)
    injector = FaultInjector(
        chaos_rules(
            drop_p=0.3,
            duplicate_p=0.2,
            delay_p=0.2,
            max_fires=2,
            crash_schedule=(4,),
        ),
        seed=seed,
    )
    bus = MessageBus()
    bus.install_injector(injector)
    worker = make_worker(
        bus,
        store_factory=lambda: DurableStore(directory / "worker"),
        fault_injector=injector,
    )
    # the reply budget rides on the *node* defaults (not per-activity
    # remote_kwargs) so a crash + rebuild reconstructs the same policy
    front = make_requester(
        bus,
        store_factory=lambda: DurableStore(directory / "front"),
        fault_injector=injector,
        request_timeout=5.0,
        request_retries=6,
    )
    iid = front.engine.start_process("Front", {"N": 7})
    # the scheduled pump crash hits one of the nodes: rebuild it over
    # its journal and keep driving
    converge_cluster(
        [worker, front],
        [(front, iid)],
        [configure_worker, configure_requester],
    )
    return front.engine.output(iid)["Result"], served(worker), injector.trace()


@pytest.mark.parametrize("seed", DIST_SEEDS)
def test_distributed_exactly_once_under_chaos(seed, tmp_path):
    # replayable chaos
    result, requests, __ = replay_twice(
        lambda d: run_distributed_chaos(seed, d), tmp_path
    )

    # the right answer, computed exactly once: drops were retried,
    # duplicates deduplicated by request id, the crash recovered
    assert result == 15  # 2*7 + 1
    assert requests == ["req/front/pi-0001/CallDouble"]
