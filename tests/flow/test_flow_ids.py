"""Deterministic workflow-uuid allocation (no uuid4 anywhere on the
replay path): seeded streams, collision burning, thread safety, and
the post-resume engine veto."""

import threading

from repro.flow import FlowIdAllocator, install_flows, step, workflow

from tests.flow.harness import flow_engine
from repro.tx import SimDatabase


class TestAllocator:
    def test_same_seed_same_sequence(self):
        a = FlowIdAllocator(seed=7)
        b = FlowIdAllocator(seed=7)
        ids_a = [a.allocate("pay") for __ in range(20)]
        ids_b = [b.allocate("pay") for __ in range(20)]
        assert ids_a == ids_b
        assert len(set(ids_a)) == 20

    def test_different_seeds_diverge(self):
        assert FlowIdAllocator(seed=1).allocate("f") != FlowIdAllocator(
            seed=2
        ).allocate("f")

    def test_id_shape_and_prefix(self):
        alloc = FlowIdAllocator(seed=0, prefix="node1")
        uuid = alloc.allocate("checkout")
        prefix, flow, token = uuid.rsplit("-", 2)
        assert prefix == "node1"
        assert flow == "checkout"
        assert len(token) == 8
        int(token, 16)  # hex

    def test_vetoed_ids_are_burned_not_reissued(self):
        taken = {FlowIdAllocator(seed=3).allocate("f")}  # the 1st draw
        alloc = FlowIdAllocator(seed=3)
        issued = [alloc.allocate("f", is_taken=taken.__contains__)]
        issued.append(alloc.allocate("f", is_taken=taken.__contains__))
        assert not taken & set(issued)
        # The burned id still advanced the stream: total draws = 3.
        assert alloc.issued() == 3

    def test_concurrent_same_named_starts_get_distinct_ids(self):
        alloc = FlowIdAllocator(seed=5)
        out: list[str] = []
        lock = threading.Lock()

        def start_many():
            for __ in range(50):
                uuid = alloc.allocate("order")
                with lock:
                    out.append(uuid)

        threads = [threading.Thread(target=start_many) for __ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(out) == 400
        assert len(set(out)) == 400


class TestEngineVeto:
    def test_resumed_runtime_never_reissues_a_precrash_uuid(self, tmp_path):
        bodies = []

        @step
        def one():
            bodies.append(1)
            return 1

        @workflow
        def tiny(flow):
            return one()

        journal = str(tmp_path / "j")
        db = SimDatabase()
        engine = flow_engine(db, store_dir=journal)
        rt = install_flows(engine, [tiny], seed=11)
        first = rt.start("tiny")
        engine.run()
        engine.crash()

        # Fresh engine, fresh runtime with the SAME seed: its PRNG
        # would re-draw `first`, but the engine veto burns it.
        engine2 = flow_engine(db, store_dir=journal)
        rt2 = install_flows(engine2, [tiny], seed=11)
        engine2.recover()
        engine2.run()
        second = rt2.start("tiny")
        assert second != first
        engine2.run()
        assert rt2.result(second).ok
        assert rt2.result(first).ok  # pre-crash flow intact

    def test_concurrent_starts_through_the_runtime(self, engine):
        @step
        def one():
            return 1

        @workflow
        def tiny(flow):
            return one()

        rt = install_flows(engine, [tiny])
        uuids: list[str] = []
        lock = threading.Lock()

        def starter():
            for __ in range(10):
                # Allocation is the shared-state hot spot; the engine
                # start itself must stay single-threaded, so serialize
                # it but let allocations race.
                with lock:
                    uuids.append(rt.start("tiny"))

        threads = [threading.Thread(target=starter) for __ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(set(uuids)) == 40
        engine.run()
        assert all(rt.result(u).ok for u in uuids)
