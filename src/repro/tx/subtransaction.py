"""Subtransactions — the bridge between transaction models, the
transactional substrate and the workflow engine.

A :class:`Subtransaction` wraps a body (a callable receiving an open
:class:`~repro.tx.database.Transaction`) together with the database it
runs against and a failure policy.  Executing it runs one ACID attempt
and reports a :class:`SubtransactionOutcome`.

``as_program`` adapts a subtransaction into a registered WFMS program:
the paper's translations communicate outcomes through return codes, and
the two sections use opposite conventions (saga appendix: RC 0 =
success; flexible §4.2: RC 1 = commit), so the adapter takes the codes
explicitly.  If the activity's output container declares a ``State``
member, the adapter records 1/0 for committed/aborted there — the
variable Figure 2 maps into the forward block's output container.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.errors import TransactionAborted
from repro.tx.database import SimDatabase, Transaction, TxnState
from repro.tx.failures import AlwaysCommit, FailurePolicy

Body = Callable[[Transaction], None]


@dataclass(frozen=True)
class SubtransactionOutcome:
    name: str
    committed: bool
    attempt: int
    reason: str = ""


@dataclass
class Subtransaction:
    """One unit of work with commit/abort semantics."""

    name: str
    database: SimDatabase
    body: Body = lambda txn: None
    policy: FailurePolicy = field(default_factory=AlwaysCommit)
    attempts: int = 0
    #: Shared event list; every attempt appends its outcome here so
    #: executors and experiments can assert execution orders.
    recorder: Optional[list[SubtransactionOutcome]] = None

    def execute(self) -> SubtransactionOutcome:
        """Run one attempt; never raises for modelled aborts.

        A body that raises anything *other* than
        :class:`TransactionAborted` is a programming error, not a
        modelled abort — the exception propagates, but the still-active
        transaction is aborted first so its strict-2PL locks are
        released instead of being held forever.
        """
        self.attempts += 1
        txn = self.database.begin()
        try:
            self.body(txn)
            if self.policy.should_abort(self.attempts):
                txn.abort(reason="injected abort")
                outcome = self._outcome(False, "injected abort")
            else:
                txn.commit()  # may raise on a unilateral local abort
                outcome = self._outcome(True)
        except TransactionAborted as exc:
            if txn.state is TxnState.ACTIVE:
                txn.abort(reason=exc.reason)
            outcome = self._outcome(False, exc.reason)
        finally:
            if txn.state is TxnState.ACTIVE:
                txn.abort(reason="unmodelled failure")
        if self.recorder is not None:
            self.recorder.append(outcome)
        return outcome

    def _outcome(self, committed: bool, reason: str = "") -> SubtransactionOutcome:
        return SubtransactionOutcome(self.name, committed, self.attempts, reason)

    def as_program(
        self, *, commit_rc: int = 0, abort_rc: int = 1
    ) -> Callable[..., int]:
        """Adapt into a WFMS program with the given RC convention."""

        def program(ctx) -> int:
            outcome = self.execute()
            if ctx.output.has("State"):
                ctx.output.set("State", 1 if outcome.committed else 0)
            return commit_rc if outcome.committed else abort_rc

        program.__name__ = "subtransaction_%s" % self.name
        return program


def write_value(key: str, value) -> Body:
    """Body helper: write one key."""

    def body(txn: Transaction) -> None:
        txn.write(key, value)

    return body


def transfer(source: str, target: str, amount: float | int) -> Body:
    """Body helper: move ``amount`` between two keys of one database,
    aborting when funds are insufficient."""

    def body(txn: Transaction) -> None:
        balance = txn.read(source, 0)
        if balance < amount:
            raise TransactionAborted(
                "insufficient funds in %s" % source, reason="insufficient funds"
            )
        txn.write(source, balance - amount)
        txn.increment(target, amount)

    return body


def compensate_transfer(source: str, target: str, amount: float | int) -> Body:
    """Body helper: the compensating transfer (money flows back)."""
    return transfer(target, source, amount)
