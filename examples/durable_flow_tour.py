#!/usr/bin/env python3
"""Durable Python workflows — the decorator front end (DESIGN.md §16).

A plain Python function becomes a durable workflow: ``@step`` bodies
are journaled and run exactly once, ``@transaction`` steps write
through a savepointed transaction scope, and the ``@workflow`` body
re-runs from the top on every attempt with completed steps answered
from the journal. This tour runs a checkout flow, crashes the engine
mid-flow, resumes on a fresh engine over the same store, and shows
that no step body re-executed.

Run with::

    python examples/durable_flow_tour.py
"""

import os
import tempfile

from repro.core.scoped import install_scope_service
from repro.flow import StepFailure, install_flows, step, transaction, workflow
from repro.store import DurableStore
from repro.tx import ScopeManager, SimDatabase
from repro.wfms import Engine

invocations: list = []


@step
def fetch(sku):
    invocations.append(("fetch", sku))
    return {"sku": sku, "price": 40 + len(sku)}


@step(name="taxed")
def with_tax(price):
    invocations.append(("tax", price))
    return price + price // 10


@transaction
def debit(scope, key, amount):
    invocations.append(("debit", key, amount))
    return scope.increment(key, -amount)


@step
def risky(total):
    invocations.append(("risky", total))
    raise RuntimeError("carrier rejected %d" % total)


@workflow
def checkout(flow, sku):
    item = fetch(sku)
    total = with_tax(item["price"])
    try:
        risky(total)  # fails; the failure itself is journaled
    except StepFailure as exc:
        surcharge = 1  # caught inline, flow continues
        assert exc.error_type == "RuntimeError"
    balance = debit("acct:main", total + surcharge)
    return {"sku": sku, "total": total + surcharge, "balance": balance}


def build_engine(store_dir, db):
    engine = Engine(store=DurableStore(store_dir))
    install_scope_service(engine, ScopeManager(db))
    runtime = install_flows(engine, [checkout], seed=7)
    return engine, runtime


def main() -> None:
    store_dir = os.path.join(tempfile.mkdtemp(), "flows")
    db = SimDatabase()
    print("store:", store_dir)

    engine, runtime = build_engine(store_dir, db)
    uuid = runtime.start("checkout", "sku-1")
    print("started flow", uuid)
    for _ in range(3):
        engine.step()
    print("bodies so far:", [c[0] for c in invocations])

    print("\n*** machine failure mid-flow ***\n")
    engine.crash()

    engine, runtime = build_engine(store_dir, db)
    engine.recover()
    engine.run()

    result = runtime.result(uuid)
    assert result.ok, result.error
    print("result:       ", result.value)
    print("bodies total: ", [c[0] for c in invocations])
    print("replayed steps on resume:",
          runtime.counters["steps_replayed_resume"])
    assert len(invocations) == len(set(map(repr, invocations))), (
        "durable flows must never re-execute a journaled step body"
    )
    assert db.get("acct:main") == -result.value["total"]
    print("\nevery step body ran exactly once — the journal held.")


if __name__ == "__main__":
    main()
