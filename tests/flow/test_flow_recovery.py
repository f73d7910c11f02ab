"""Crash-resume for decorated flows, and the resume-equivalence
property: a flow killed after *any* prefix of its attempts and resumed
on a fresh engine produces the same containers, return code, execution
order, database state, and (normalized) audit trail as one that never
crashed — with every step body still executing exactly once."""

import json
import os

from repro.flow import StepFailure, install_flows, step, transaction, workflow
from repro.store import DurableStore
from repro.tx import ScopeManager, SimDatabase
from repro.wfms import Engine
from repro.core.scoped import install_scope_service

from tests.chaos_harness import normalized_audit
from tests.flow.harness import assert_exactly_once, flow_engine


def capture(engine, rt, uuid, db):
    result = rt.result(uuid)
    return {
        "state": result.state,
        "rc": result.return_code,
        "value": result.value,
        "error": result.error,
        "output": engine.output(uuid),
        "order": engine.execution_order(uuid, include_children=False),
        "audit": normalized_audit(engine, uuid),
        "db": db.snapshot(),
    }


class Harness:
    """One run of one flow over a crashable engine incarnation chain."""

    def __init__(self, tmp_path, tag, make_flows, seed=0, store_every=None):
        self.dir = str(tmp_path / tag)
        os.makedirs(self.dir, exist_ok=True)
        self.db = SimDatabase()
        self.calls: list = []
        self.holder: dict = {}
        self.make_flows = make_flows
        self.seed = seed
        self.store_every = store_every
        self.engine = None
        self.rt = None
        self._boot()

    def _boot(self):
        if self.store_every:
            store = DurableStore(
                os.path.join(self.dir, "store"),
                checkpoint_every_records=self.store_every,
            )
            engine = Engine(store=store)
            install_scope_service(engine, ScopeManager(self.db))
        else:
            engine = flow_engine(
                self.db, store_dir=os.path.join(self.dir, "j")
            )
        self.holder["manager"] = engine.services["tx_scopes"]
        self.engine = engine
        self.rt = install_flows(
            engine, self.make_flows(self.calls, self.holder), seed=self.seed
        )

    def crash_and_resume(self):
        self.engine.crash()
        self._boot()
        self.engine.recover()

    def run_killing_after(self, kills, max_steps=10_000):
        """Drive to quiescence, crashing after the i-th successful
        engine step for each i in ``kills`` (global count across
        incarnations)."""
        pending = sorted(set(kills), reverse=True)
        done = 0
        for __ in range(max_steps):
            if not self.engine.step():
                if pending and pending[-1] >= done:
                    # Kill point beyond the run's length: nothing left
                    # to interrupt.
                    break
                break
            done += 1
            if pending and pending[-1] == done:
                pending.pop()
                self.crash_and_resume()
        return done


def simple_flows(calls, holder):
    @step
    def add(a, b):
        calls.append(("add", a, b))
        return a + b

    @transaction
    def credit(scope, key, amount):
        calls.append(("credit", key, amount))
        return scope.increment(key, amount)

    @workflow
    def chain(flow, n):
        total = 0
        for i in range(n):
            total = add(total, i)
        bal = credit("acct:a", total)
        if bal > 3:
            total = add(total, 100)
        return {"total": total, "bal": bal}

    return [chain]


def saboteur_flows(calls, holder):
    """A pipeline whose middle @transaction step kills the *whole
    scope* on its first execution (a chaos stand-in for a timeout or
    deadlock abort) and is retried by the workflow."""

    @step
    def add(a, b):
        calls.append(("add", a, b))
        return a + b

    @transaction
    def credit(scope, key, amount):
        calls.append(("credit", key, amount))
        return scope.increment(key, amount)

    # The chaos flag must outlive attempts (each attempt re-runs the
    # workflow body from the top) — body executions are exactly-once,
    # so flipping it on first execution is deterministic per run.
    holder.setdefault("armed", True)

    @transaction
    def shaky_credit(scope, key, amount):
        # The retry is a distinct invocation (a new function_id), so
        # the exactly-once recorder keys on the chaos state too.
        calls.append(("shaky", key, "armed" if holder["armed"] else "retry"))
        scope.write("tmp:%s" % key, amount)
        if holder["armed"]:
            holder["armed"] = False
            # Abort the surrounding scope out from under the step.
            holder["manager"].rollback(scope.handle, "injected abort")
            return scope.read(key)  # raises: the scope is gone
        return scope.increment(key, amount)

    @workflow
    def pipeline(flow, n):
        total = 0
        for i in range(1, n + 1):
            total = add(total, i)
        first = credit("acct:a", total)
        paid = None
        for __ in range(2):
            try:
                paid = shaky_credit("acct:b", first)
                break
            except StepFailure as exc:
                assert exc.error_type == "ScopeError"
        tail = add(paid, 1)
        final = credit("acct:c", tail)
        return {"paid": paid, "tail": tail, "final": final}

    return [pipeline]


class TestCrashResume:
    def test_resume_skips_journaled_steps(self, tmp_path):
        h = Harness(tmp_path, "one", simple_flows, seed=2)
        uuid = h.rt.start("chain", 4)
        for __ in range(3):
            h.engine.step()
        h.crash_and_resume()
        assert h.rt.counters["flows_started"] == 0  # fresh runtime
        h.engine.run()
        result = h.rt.result(uuid)
        assert result.ok
        assert result.value == {"total": 106, "bal": 6}
        # Bodies ran exactly once across both incarnations.
        assert [c for c in h.calls if c[0] == "add"] == [
            ("add", 0, 0),
            ("add", 0, 1),
            ("add", 1, 2),
            ("add", 3, 3),
            ("add", 6, 100),
        ]
        assert h.rt.counters["flows_resumed"] == 1
        assert h.rt.counters["steps_replayed_resume"] >= 1

    def test_resume_reestablishes_the_scope(self, tmp_path):
        h = Harness(tmp_path, "scope", simple_flows, seed=3)
        uuid = h.rt.start("chain", 4)
        # Run until the credit step has executed (attempt 5 of 6).
        for __ in range(5):
            h.engine.step()
        h.crash_and_resume()
        h.engine.run()
        assert h.rt.result(uuid).ok
        assert h.db.get("acct:a") == 6
        # The credit body must not have re-run...
        assert len([c for c in h.calls if c[0] == "credit"]) == 1
        # ...its journaled effects were re-applied onto a fresh scope.
        assert h.rt.counters["scopes_reestablished"] == 1


class TestResumeEquivalence:
    """The property test: every kill point produces the baseline."""

    def _baseline(self, tmp_path, make_flows, start_args):
        h = Harness(tmp_path, "base", make_flows, seed=9)
        uuid = h.rt.start(*start_args)
        steps = h.run_killing_after([])
        base = capture(h.engine, h.rt, uuid, h.db)
        assert_exactly_once(h.calls)
        assert base["state"] == "finished" and base["rc"] == 0
        return steps, base

    def _sweep(self, tmp_path, make_flows, start_args, kill_sets, base):
        for i, kills in enumerate(kill_sets):
            h = Harness(tmp_path, "k%d" % i, make_flows, seed=9)
            uuid = h.rt.start(*start_args)
            h.run_killing_after(kills)
            got = capture(h.engine, h.rt, uuid, h.db)
            assert_exactly_once(h.calls)
            assert got == base, "kill schedule %r diverged" % (kills,)

    def test_every_single_kill_point_is_equivalent(self, tmp_path):
        steps, base = self._baseline(tmp_path, simple_flows, ("chain", 4))
        self._sweep(
            tmp_path,
            simple_flows,
            ("chain", 4),
            [[k] for k in range(1, steps + 1)],
            base,
        )

    def test_double_kills_are_equivalent(self, tmp_path):
        steps, base = self._baseline(tmp_path, simple_flows, ("chain", 4))
        self._sweep(
            tmp_path,
            simple_flows,
            ("chain", 4),
            [[1, 3], [2, steps], [1, 2]],
            base,
        )

    def test_aborted_and_retried_transaction_is_equivalent(self, tmp_path):
        """Includes a @transaction step that aborts its whole scope on
        first execution and is retried — kill points falling before,
        on, and after the abort all converge to the baseline."""
        steps, base = self._baseline(
            tmp_path, saboteur_flows, ("pipeline", 3)
        )
        assert base["value"]["paid"] == 6
        assert base["db"]["acct:b"] == 6
        assert base["db"]["acct:c"] == 7
        self._sweep(
            tmp_path,
            saboteur_flows,
            ("pipeline", 3),
            [[k] for k in range(1, steps + 1)],
            base,
        )


class TestStoreBackedResume:
    def test_checkpointed_recovery_resumes_flows(self, tmp_path):
        h = Harness(tmp_path, "st", simple_flows, seed=4, store_every=3)
        uuid = h.rt.start("chain", 4)
        for __ in range(4):
            h.engine.step()
        assert h.engine.store.status()["last_checkpoint_offset"]
        h.crash_and_resume()
        # Recovery came from snapshot + suffix, not a cold scan.
        assert h.engine.store.last_recovery["checkpoint"] is not None
        h.engine.run()
        result = h.rt.result(uuid)
        assert result.ok
        assert result.value == {"total": 106, "bal": 6}
        assert_exactly_once(h.calls)
        assert h.db.get("acct:a") == 6
