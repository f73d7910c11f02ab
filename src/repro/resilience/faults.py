"""Deterministic fault injection.

Static vs Dynamic SAGAs (Lanese, arXiv:1010.5569) makes the saga
compensation guarantee precise *under failure interleavings*; the
kernel of Barros et al. (arXiv:2105.15139) treats failure handling as
a first-class workflow-modelling concern.  Both demand that recovery
semantics hold under adversarial schedules — which is only testable if
the adversary is (a) injectable and (b) replayable.

:class:`FaultInjector` is that adversary.  It holds declarative
:class:`FaultRule`\\ s and a seeded RNG; runtime components consult it
at well-defined **sites**:

=================  ============================================  ==================
site               key matched against ``FaultRule.match``       actions
=================  ============================================  ==================
``bus.send``       destination queue name                        drop, duplicate, delay
``program``        program name of the invoked activity          raise (ProgramError)
``journal.append`` journal record type                           raise (JournalError)
``journal.fsync``  durability-point reason                       raise (JournalError)
``node.pump``      workflow node name                            crash (InjectedCrash)
``snapshot.write`` checkpoint file basename                      raise (JournalError)
``compact``        journal directory basename                    raise (JournalError)
``scope.commit``   transaction-scope handle                      raise (JournalError)
``net.connection`` broker-side client connection name            reset
``net.reply``      broker-side client connection name            reset
``buslog.append``  bus-log record type                           raise (JournalError)
``buslog.fsync``   durability-point reason                       raise (JournalError)
``broker.crash``   bus operation name                            crash
=================  ============================================  ==================

``net.connection`` resets *before* the frame is served (nothing
applied); ``net.reply`` resets *after* the operation applied but
before the reply frame is written — the worst reconnect window, which
the broker's op-id dedup must make safe.  ``broker.crash`` kills the
whole broker after the operation applied (and was journaled) but
before the reply: a durable broker restarted over the same directory
must recover without losing or double-applying it.

A rule fires on a **schedule** (1-based match counts), with a
**probability** drawn from the injector's seeded RNG, or both; an
optional ``max_fires`` bounds total chaos so convergence tests stay
convergent.  Every decision consumes injector state in call order
only, so the same seed over the same execution produces bit-for-bit
the same fault schedule — the chaos suite asserts this by comparing
:attr:`FaultInjector.fired` logs across runs.

Zero overhead when absent: components hold ``None`` instead of an
injector and guard every site with one attribute test (the same
cost discipline as the :mod:`repro.obs` null objects, enforced by the
``engine.dag_8x8`` metric in ``benchmarks/compare.py``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fnmatch import fnmatchcase
from typing import Any

from repro.errors import JournalError, ProgramError, WorkflowError

#: Sites components consult, with their legal actions.
SITES: dict[str, tuple[str, ...]] = {
    "bus.send": ("drop", "duplicate", "delay"),
    "program": ("raise",),
    "journal.append": ("raise",),
    "journal.fsync": ("raise",),
    "node.pump": ("crash",),
    "snapshot.write": ("raise",),
    "compact": ("raise",),
    "scope.commit": ("raise",),
    "net.connection": ("reset",),
    "net.reply": ("reset",),
    "buslog.append": ("raise",),
    "buslog.fsync": ("raise",),
    "broker.crash": ("crash",),
}


class InjectedCrash(WorkflowError):
    """A fault rule forced a node crash; the node's volatile state is
    gone (``WorkflowNode.crash`` already ran) and the driver must
    ``rebuild`` before pumping it again."""


@dataclass(frozen=True)
class FiredFault:
    """One injector decision that fired (the replayable chaos trace)."""

    sequence: int
    site: str
    key: str
    action: str
    count: int  # the rule's 1-based match count when it fired


@dataclass(frozen=True)
class FaultRule:
    """One declarative fault: where, what, and when.

    ``match`` is an ``fnmatch`` pattern against the site key (queue,
    program, record type, node name).  ``schedule`` fires on those
    1-based match counts; ``probability`` fires per match from the
    injector's seeded RNG; both may be combined (either triggers).
    ``max_fires`` caps how often the rule fires in total; ``delay`` is
    the number of receive sweeps a delayed message sits out
    (``bus.send`` + ``action="delay"`` only).
    """

    site: str
    action: str = ""
    match: str = "*"
    probability: float = 0.0
    schedule: frozenset = frozenset()
    max_fires: int | None = None
    delay: int = 1

    def __post_init__(self) -> None:
        if self.site not in SITES:
            raise WorkflowError(
                "unknown fault site %r (choose from %s)"
                % (self.site, ", ".join(sorted(SITES)))
            )
        action = self.action or SITES[self.site][0]
        object.__setattr__(self, "action", action)
        if action not in SITES[self.site]:
            raise WorkflowError(
                "site %s does not support action %r (legal: %s)"
                % (self.site, action, ", ".join(SITES[self.site]))
            )
        if not 0.0 <= self.probability <= 1.0:
            raise WorkflowError("probability must be in [0, 1]")
        object.__setattr__(self, "schedule", frozenset(self.schedule))
        if not self.schedule and self.probability == 0.0:
            raise WorkflowError(
                "rule fires never: give a schedule and/or a probability"
            )
        if self.delay < 1:
            raise WorkflowError("delay must be >= 1 receive sweep")


@dataclass
class FaultInjector:
    """Seeded, deterministic fault source consulted by runtime sites.

    Install on the components under test::

        injector = FaultInjector(
            [FaultRule("program", match="txn_*", probability=0.2)],
            seed=7,
        )
        engine = Engine(fault_injector=injector)
        bus.install_injector(injector)

    The same seed and rules over the same call sequence reproduce the
    same decisions; :attr:`fired` is the replayable chaos trace.
    """

    rules: list[FaultRule] = field(default_factory=list)
    seed: int = 0

    def __post_init__(self) -> None:
        self.rules = list(self.rules)
        self._rng = random.Random(self.seed)
        self._match_counts = [0] * len(self.rules)
        self._fire_counts = [0] * len(self.rules)
        #: every fired decision, in firing order (the chaos trace).
        self.fired: list[FiredFault] = []

    # -- core decision ---------------------------------------------------

    def decide(self, site: str, key: str) -> FaultRule | None:
        """First rule of ``site`` matching ``key`` that fires, if any.

        Every matching rule's count advances (and its probability draw
        is consumed) whether or not it fires, so decisions depend only
        on the call sequence, never on which earlier rules fired.
        """
        chosen = None
        for index, rule in enumerate(self.rules):
            if rule.site != site or not fnmatchcase(key, rule.match):
                continue
            self._match_counts[index] += 1
            count = self._match_counts[index]
            fires = count in rule.schedule
            if rule.probability and self._rng.random() < rule.probability:
                fires = True
            if (
                rule.max_fires is not None
                and self._fire_counts[index] >= rule.max_fires
            ):
                fires = False
            if fires and chosen is None:
                self._fire_counts[index] += 1
                self.fired.append(
                    FiredFault(len(self.fired), site, key, rule.action, count)
                )
                chosen = rule
        return chosen

    # -- site adapters ---------------------------------------------------

    def on_send(self, queue: str) -> FaultRule | None:
        """Bus send site: returns the firing rule (drop/duplicate/
        delay) or None for a clean send."""
        return self.decide("bus.send", queue)

    def before_program(
        self, instance_id: str, activity: str, program: str
    ) -> None:
        """Program site: raises :class:`ProgramError` when a rule
        fires, exactly as a crashing external application would."""
        if self.decide("program", program) is not None:
            raise ProgramError(
                "injected fault: program %r crashed (instance %s, "
                "activity %s)" % (program, instance_id, activity)
            )

    def on_journal(
        self, operation: str, key: str, scope: str = "journal"
    ) -> None:
        """Journal site (``operation`` is ``append`` or ``fsync``):
        raises :class:`JournalError` when a rule fires.  ``scope``
        selects the site family — the engine journal consults
        ``journal.*``, the broker's write-ahead bus log ``buslog.*``."""
        if self.decide("%s.%s" % (scope, operation), key) is not None:
            raise JournalError(
                "injected fault: %s %s failed (%s)" % (scope, operation, key)
            )

    def on_pump(self, node: str) -> bool:
        """Node site: True when the node must crash this pump."""
        return self.decide("node.pump", node) is not None

    def on_store(self, site: str, key: str) -> None:
        """Durable-store sites (``snapshot.write``, ``compact``):
        raises :class:`JournalError` when a rule fires.  A fired
        ``snapshot.write`` tears the checkpoint mid-document; a fired
        ``compact`` aborts compaction before its manifest commit."""
        if self.decide(site, key) is not None:
            raise JournalError(
                "injected fault: store %s failed (%s)" % (site, key)
            )

    def on_connection(self, name: str) -> bool:
        """Socket-broker site, consulted once per received frame: True
        when the broker must reset (abruptly close) the client
        connection instead of serving the request.  The client's
        reconnect-with-backoff takes over; the retried request is a
        fresh frame and is consulted again."""
        return self.decide("net.connection", name) is not None

    def on_reply(self, name: str) -> bool:
        """Socket-broker reply site, consulted *after* an operation
        applied (and, durably, journaled) but before the reply frame is
        written: True when the broker must reset the connection with
        the reply unsent.  The retried request hits the broker's op-id
        dedup and returns the cached reply without re-applying."""
        return self.decide("net.reply", name) is not None

    def on_broker_crash(self, op: str) -> bool:
        """Broker-crash site, consulted after an operation applied and
        was journaled but before the reply: True when the whole broker
        must die on the spot (``os._exit`` in a broker process — the
        SIGKILL window the durable-broker chaos suite exercises)."""
        return self.decide("broker.crash", op) is not None

    def on_scope_commit(self, handle: str) -> None:
        """Transaction-scope commit site: raises :class:`JournalError`
        *before* the scope's COMMIT record is written, modelling a node
        crash at the commit point — the scope's transaction is left a
        loser for recovery to roll back."""
        if self.decide("scope.commit", handle) is not None:
            raise JournalError(
                "injected fault: scope commit failed (%s)" % handle
            )

    # -- bookkeeping -----------------------------------------------------

    def fire_counts(self) -> list[int]:
        """Per-rule fire totals (rule order)."""
        return list(self._fire_counts)

    def trace(self) -> list[tuple[str, str, str, int]]:
        """The fired log as comparable tuples (site, key, action,
        count) — what the chaos suite diffs across replays."""
        return [(f.site, f.key, f.action, f.count) for f in self.fired]

    def __repr__(self) -> str:
        return "FaultInjector(%d rules, seed=%d, fired=%d)" % (
            len(self.rules),
            self.seed,
            len(self.fired),
        )


def chaos_rules(
    *,
    program_match: str = "txn_*",
    program_p: float = 0.0,
    drop_p: float = 0.0,
    duplicate_p: float = 0.0,
    delay_p: float = 0.0,
    journal_p: float = 0.0,
    crash_schedule: Any = (),
    max_fires: int | None = 3,
) -> list[FaultRule]:
    """Convenience builder for the chaos suite's standard rule mix.

    Only non-zero probabilities (and a non-empty crash schedule)
    produce rules; ``max_fires`` bounds each rule so every chaos run
    eventually quiesces.
    """
    rules: list[FaultRule] = []
    if program_p:
        rules.append(
            FaultRule(
                "program",
                match=program_match,
                probability=program_p,
                max_fires=max_fires,
            )
        )
    if drop_p:
        rules.append(
            FaultRule(
                "bus.send", "drop", probability=drop_p, max_fires=max_fires
            )
        )
    if duplicate_p:
        rules.append(
            FaultRule(
                "bus.send",
                "duplicate",
                probability=duplicate_p,
                max_fires=max_fires,
            )
        )
    if delay_p:
        rules.append(
            FaultRule(
                "bus.send",
                "delay",
                probability=delay_p,
                max_fires=max_fires,
                delay=2,
            )
        )
    if journal_p:
        rules.append(
            FaultRule(
                "journal.append",
                probability=journal_p,
                max_fires=max_fires,
            )
        )
    if crash_schedule:
        rules.append(
            FaultRule("node.pump", "crash", schedule=frozenset(crash_schedule))
        )
    return rules
