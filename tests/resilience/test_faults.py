"""Tests for the deterministic fault injector and its runtime sites."""

import pytest

from repro.errors import JournalError, ProgramError, WorkflowError
from repro.resilience import FaultInjector, FaultRule, chaos_rules
from repro.store import DurableStore, SegmentedJournal
from repro.wfms.engine import Engine
from repro.wfms.messaging import MessageBus, dlq_name
from repro.wfms.model import Activity, ProcessDefinition


class TestFaultRule:
    def test_unknown_site_rejected(self):
        with pytest.raises(WorkflowError, match="unknown fault site"):
            FaultRule("network", schedule={1})

    def test_illegal_action_for_site_rejected(self):
        with pytest.raises(WorkflowError, match="does not support action"):
            FaultRule("program", "drop", schedule={1})

    def test_default_action_is_first_legal_one(self):
        assert FaultRule("bus.send", schedule={1}).action == "drop"
        assert FaultRule("program", schedule={1}).action == "raise"

    def test_probability_out_of_range_rejected(self):
        with pytest.raises(WorkflowError, match="probability"):
            FaultRule("program", probability=1.5)

    def test_rule_that_never_fires_rejected(self):
        with pytest.raises(WorkflowError, match="fires never"):
            FaultRule("program")

    def test_delay_below_one_sweep_rejected(self):
        with pytest.raises(WorkflowError, match="delay"):
            FaultRule("bus.send", "delay", schedule={1}, delay=0)


class TestDecide:
    def test_schedule_fires_on_exact_match_counts(self):
        injector = FaultInjector(
            [FaultRule("program", match="p", schedule={2, 4})]
        )
        fired = [
            injector.decide("program", "p") is not None for __ in range(5)
        ]
        assert fired == [False, True, False, True, False]

    def test_non_matching_key_does_not_advance_count(self):
        injector = FaultInjector(
            [FaultRule("program", match="p", schedule={2})]
        )
        assert injector.decide("program", "other") is None
        assert injector.decide("program", "other") is None
        assert injector.decide("program", "p") is None  # count 1
        assert injector.decide("program", "p") is not None  # count 2

    def test_max_fires_caps_the_rule(self):
        injector = FaultInjector(
            [FaultRule("program", probability=1.0, max_fires=2)]
        )
        fired = [
            injector.decide("program", "p") is not None for __ in range(5)
        ]
        assert fired == [True, True, False, False, False]
        assert injector.fire_counts() == [2]

    def test_same_seed_same_trace(self):
        def run(seed):
            injector = FaultInjector(
                [
                    FaultRule("program", probability=0.5),
                    FaultRule("bus.send", "drop", probability=0.3),
                ],
                seed=seed,
            )
            for i in range(30):
                injector.decide("program", "p%d" % (i % 3))
                injector.decide("bus.send", "q")
            return injector.trace()

        assert run(7) == run(7)
        assert run(7) != run(8)  # 30 draws at p=0.5: collision ~0

    def test_draws_consumed_even_when_rule_cannot_fire(self):
        # A capped rule keeps consuming its probability draw, so the
        # rules after it see the same RNG stream whether or not it
        # already fired -- decisions depend on call order only.
        def second_rule_fires(max_fires):
            injector = FaultInjector(
                [
                    FaultRule(
                        "program", probability=0.5, max_fires=max_fires
                    ),
                    FaultRule("bus.send", "drop", probability=0.5),
                ],
                seed=3,
            )
            fires = []
            for __ in range(20):
                injector.decide("program", "p")
                fires.append(injector.decide("bus.send", "q") is not None)
            return fires

        assert second_rule_fires(0) == second_rule_fires(100)

    def test_first_firing_rule_wins(self):
        injector = FaultInjector(
            [
                FaultRule("bus.send", "drop", schedule={1}),
                FaultRule("bus.send", "duplicate", schedule={1}),
            ]
        )
        rule = injector.decide("bus.send", "q")
        assert rule.action == "drop"
        # both rules matched; only the first one fired
        assert injector.fire_counts() == [1, 0]


class TestSiteAdapters:
    def test_before_program_raises_program_error(self):
        injector = FaultInjector([FaultRule("program", schedule={1})])
        with pytest.raises(ProgramError, match="injected fault"):
            injector.before_program("pi-1", "A", "txn_a")

    def test_on_journal_raises_journal_error(self):
        injector = FaultInjector([FaultRule("journal.fsync", schedule={1})])
        with pytest.raises(JournalError, match="injected fault"):
            injector.on_journal("fsync", "append")

    def test_on_pump_returns_crash_decision(self):
        injector = FaultInjector(
            [FaultRule("node.pump", match="worker", schedule={2})]
        )
        assert injector.on_pump("worker") is False
        assert injector.on_pump("front") is False
        assert injector.on_pump("worker") is True


class TestChaosRules:
    def test_zero_probabilities_produce_no_rules(self):
        assert chaos_rules() == []

    def test_standard_mix(self):
        rules = chaos_rules(
            program_p=0.2,
            drop_p=0.1,
            duplicate_p=0.1,
            delay_p=0.1,
            journal_p=0.05,
            crash_schedule=(3,),
        )
        assert [(r.site, r.action) for r in rules] == [
            ("program", "raise"),
            ("bus.send", "drop"),
            ("bus.send", "duplicate"),
            ("bus.send", "delay"),
            ("journal.append", "raise"),
            ("node.pump", "crash"),
        ]
        assert all(
            r.max_fires == 3 for r in rules if r.site != "node.pump"
        )


class TestBusInjection:
    def test_drop_returns_id_but_enqueues_nothing(self):
        bus = MessageBus()
        bus.install_injector(
            FaultInjector([FaultRule("bus.send", "drop", schedule={1})])
        )
        msg_id = bus.send("q", {"n": 1})
        assert msg_id
        assert bus.depth("q") == 0
        stats = bus.stats("q")
        assert stats["sent"] == 1 and stats["dropped"] == 1

    def test_duplicate_enqueues_twin_with_distinct_id(self):
        bus = MessageBus()
        bus.install_injector(
            FaultInjector([FaultRule("bus.send", "duplicate", schedule={1})])
        )
        bus.send("q", {"n": 1})
        assert bus.depth("q") == 2
        first = bus.receive("q")
        second = bus.receive("q")
        assert first[0] != second[0]
        assert first[1] == second[1] == {"n": 1}
        assert bus.stats("q")["duplicated"] == 1

    def test_delay_sits_out_receive_sweeps(self):
        bus = MessageBus()
        bus.install_injector(
            FaultInjector(
                [FaultRule("bus.send", "delay", schedule={1}, delay=2)]
            )
        )
        bus.send("q", {"n": 1})
        bus.send("q", {"n": 2})  # rule already fired; clean send
        # the delayed head sits out two sweeps; the later message
        # overtakes it
        assert bus.receive("q")[1] == {"n": 2}
        assert bus.receive("q") is None  # sweep 2: hold 1 left
        assert bus.receive("q")[1] == {"n": 1}
        assert bus.stats("q")["delayed"] == 1

    def test_without_injector_sends_are_clean(self):
        bus = MessageBus()
        bus.send("q", {"n": 1})
        assert bus.depth("q") == 1
        assert bus.stats("q")["dropped"] == 0


class TestJournalInjection:
    def test_injected_append_fails_before_any_write(self, tmp_path):
        path = tmp_path / "j" / "segment-00000000.jsonl"
        injector = FaultInjector(
            [FaultRule("journal.append", match="process_started", schedule={1})]
        )
        journal = SegmentedJournal(tmp_path / "j", injector=injector)
        with pytest.raises(JournalError):
            journal.append({"type": "process_started", "instance": "pi-1"})
        # neither the file nor memory claims the record
        assert journal.records() == []
        journal.close()
        assert path.read_text() == ""

    def test_injected_fsync_fails_after_durable_prefix(self, tmp_path):
        path = tmp_path / "j" / "segment-00000000.jsonl"
        injector = FaultInjector(
            [FaultRule("journal.fsync", schedule={2})]
        )
        journal = SegmentedJournal(tmp_path / "j", injector=injector)
        journal.append({"type": "process_started", "instance": "pi-1"})
        with pytest.raises(JournalError):
            journal.append({"type": "process_finished", "instance": "pi-1"})
        journal.abandon()
        assert path.read_text().count("\n") >= 1  # first record durable


class TestEngineDegrade:
    def _definition(self):
        defn = ProcessDefinition("P")
        defn.add_activity(Activity("A", program="ok"))
        return defn

    def test_journal_fault_degrades_engine_to_crashed(self, tmp_path):
        injector = FaultInjector(
            [
                FaultRule(
                    "journal.append",
                    match="activity_completed",
                    schedule={1},
                )
            ]
        )
        engine = Engine(
            store=DurableStore(tmp_path / "j"), fault_injector=injector
        )
        engine.register_program("ok", lambda ctx: 0)
        engine.register_definition(self._definition())
        iid = engine.start_process("P")
        with pytest.raises(JournalError):
            engine.run()
        assert engine.crashed
        from repro.errors import NavigationError

        with pytest.raises(NavigationError, match="crashed"):
            engine.step()

        # the durable prefix replays on a fresh engine; the interrupted
        # activity is re-executed from the beginning
        engine2 = Engine(store=DurableStore(tmp_path / "j"))
        engine2.register_program("ok", lambda ctx: 0)
        engine2.register_definition(self._definition())
        engine2.recover()
        engine2.run()
        assert engine2.instance_state(iid) == "finished"
