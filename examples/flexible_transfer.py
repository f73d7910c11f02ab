#!/usr/bin/env python3
"""A multidatabase funds transfer as a flexible transaction — §4.2.

The transfer debits the customer's bank (compensatable), then credits
the beneficiary through the *fast* clearing house (a pivot that may
unilaterally reject) with the *slow* house as the retriable fallback,
and finally books a retriable audit record.

Three runs:

* A — the fast house accepts: preferred path commits.
* B — the fast house rejects: the engine switches to the slow house.
  The debit is shared between both paths, so nothing is compensated.
* C — insufficient funds: the debit itself aborts and dead-path
  elimination terminates the whole process with no effects.

Run with::

    python examples/flexible_transfer.py
"""

from repro.tx import AbortScript
from repro.wfms.engine import Engine
from repro.core.bindings import register_programs, workflow_outcome
from repro.core.flexible_translator import translate_flexible
from repro.workloads.banking import TransferWorkload


def run(label: str, *, balance: int = 500, fast_rejects: bool = False) -> None:
    print("== %s ==" % label)
    policies = {"credit_fast": AbortScript([1])} if fast_rejects else {}
    workload = TransferWorkload.fresh(
        balance=balance, amount=100, policies=policies
    )
    translation = translate_flexible(workload.spec)
    engine = Engine()
    register_programs(
        engine, translation, workload.actions, workload.compensations
    )
    engine.register_definition(translation.process)

    print("   before:", workload.balances())
    result = engine.run_process(translation.process_name)
    outcome = workflow_outcome(engine, translation, result.instance_id)
    print("   committed:", outcome.committed)
    print("   path:     ", outcome.committed_path)
    print("   undone:   ", outcome.compensated)
    print("   after:    ", workload.balances())
    print("   money conserved:", workload.money_conserved(balance))
    assert workload.money_conserved(balance)


if __name__ == "__main__":
    run("Run A: fast clearing house accepts")
    print()
    run("Run B: fast house rejects, slow house fallback", fast_rejects=True)
    print()
    run("Run C: insufficient funds, full abort", balance=50)
