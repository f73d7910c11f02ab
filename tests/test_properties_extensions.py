"""Property-based tests for the extension layers: the message bus,
the simulator, and the ConTract model's native/workflow parity."""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.errors import WorkflowError
from repro.tx import AbortScript, SimDatabase, Subtransaction
from repro.tx.subtransaction import write_value
from repro.wfms.datatypes import DataType, VariableDecl
from repro.wfms.engine import Engine
from repro.wfms.messaging import MessageBus
from repro.wfms.model import Activity, ProcessDefinition
from repro.wfms.simulate import ActivityProfile, simulate
from repro.core.contract import (
    ContractSpec,
    ContractStep,
    NativeContractExecutor,
    translate_contract,
)
from repro.core.bindings import register_programs, workflow_outcome


# ---------------------------------------------------------------------------
# Message bus: no loss, no duplication
# ---------------------------------------------------------------------------

@given(
    ops=st.lists(
        st.sampled_from(["send", "receive", "ack", "nack", "recover"]),
        max_size=40,
    )
)
@settings(max_examples=80, deadline=None)
def test_message_bus_conserves_messages(ops):
    bus = MessageBus()
    sent = 0
    acked = 0
    in_flight: list[str] = []
    for op in ops:
        if op == "send":
            bus.send("q", {"n": sent})
            sent += 1
        elif op == "receive":
            message = bus.receive("q")
            if message is not None:
                in_flight.append(message[0])
        elif op == "ack" and in_flight:
            bus.ack("q", in_flight.pop(0))
            acked += 1
        elif op == "nack" and in_flight:
            bus.nack("q", in_flight.pop(0))
        elif op == "recover":
            bus.recover_in_flight("q")
            in_flight.clear()
    # Conservation: everything sent is either acked or still queued.
    assert bus.depth("q") == sent - acked


@given(count=st.integers(min_value=0, max_value=30))
@settings(max_examples=30, deadline=None)
def test_message_bus_fifo_order(count):
    bus = MessageBus()
    for n in range(count):
        bus.send("q", {"n": n})
    received = []
    while True:
        message = bus.receive("q")
        if message is None:
            break
        msg_id, body = message
        received.append(body["n"])
        bus.ack("q", msg_id)
    assert received == list(range(count))


# ---------------------------------------------------------------------------
# Simulator invariants
# ---------------------------------------------------------------------------

@st.composite
def chains(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    durations = draw(
        st.lists(
            st.floats(min_value=0.1, max_value=10.0),
            min_size=n,
            max_size=n,
        )
    )
    probabilities = draw(
        st.lists(
            st.sampled_from([0.3, 0.7, 1.0]), min_size=n, max_size=n
        )
    )
    return durations, probabilities


@given(chain=chains(), seed=st.integers(min_value=0, max_value=100))
@settings(max_examples=50, deadline=None)
def test_simulation_makespan_bounds(chain, seed):
    durations, probabilities = chain
    d = ProcessDefinition("Chain")
    names = ["a%d" % i for i in range(len(durations))]
    for name in names:
        d.add_activity(Activity(name, program="p"))
    for left, right in zip(names, names[1:]):
        d.connect(left, right, "RC = 0")
    profiles = {
        name: ActivityProfile(
            duration=durations[i], success_probability=probabilities[i]
        )
        for i, name in enumerate(names)
    }
    report = simulate(d, profiles, runs=20, seed=seed)
    assert 0.0 <= report.completion_rate <= 1.0
    upper = sum(
        durations[i] * (profiles[names[i]].max_retries + 1)
        for i in range(len(names))
    )
    for run in report.runs:
        assert durations[0] - 1e-9 <= run.makespan <= upper + 1e-9
        assert run.executed + run.dead == len(names)


# ---------------------------------------------------------------------------
# ConTract parity under random contexts and failures
# ---------------------------------------------------------------------------

SPEC = ContractSpec(
    "c",
    context=[VariableDecl("X", DataType.LONG)],
    steps=[
        ContractStep("s1"),
        ContractStep("s2", entry_condition="X > 10"),
        ContractStep("s3", entry_condition="X > 0", critical=True),
        ContractStep("s4", entry_condition="X > 100"),
    ],
)


@given(
    x=st.integers(min_value=-5, max_value=200),
    abort_step=st.sampled_from(["", "s1", "s2", "s3", "s4"]),
)
@settings(max_examples=60, deadline=None)
def test_contract_native_workflow_parity(x, abort_step):
    def bindings(db):
        actions = {
            s.name: Subtransaction(s.name, db, write_value(s.name, 1))
            for s in SPEC.steps
        }
        if abort_step:
            actions[abort_step].policy = AbortScript([1])
        comps = {
            s.name: Subtransaction("c" + s.name, db, write_value(s.name, 0))
            for s in SPEC.steps
        }
        return actions, comps

    native_db = SimDatabase()
    actions, comps = bindings(native_db)
    native = NativeContractExecutor(SPEC, actions, comps).run({"X": x})

    wf_db = SimDatabase()
    actions2, comps2 = bindings(wf_db)
    translation = translate_contract(SPEC)
    engine = Engine()
    register_programs(engine, translation, actions2, comps2)
    engine.register_definition(translation.process)
    iid = engine.start_process(translation.process_name, {"X": x})
    engine.run()
    workflow = workflow_outcome(engine, translation, iid)

    assert workflow.committed == native.committed
    assert workflow.executed == native.executed
    assert workflow.skipped == native.skipped
    assert workflow.compensated == native.compensated
    assert wf_db.snapshot() == native_db.snapshot()
