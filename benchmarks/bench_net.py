"""Socket-transport benchmarks: request/reply cost.

Two numbers the performance gate tracks:

* ``request_reply_throughput`` — bus RPC round-trips/sec over a live
  broker (send → receive → ack cycles on one connection, three
  round-trips per message).  This is the floor cost a WorkflowNode
  pays per remote message versus the in-memory bus: framing, one
  loopback TCP round-trip, broker dispatch;
* ``durable_request_reply_throughput`` — the same cycle against a
  broker with the write-ahead bus log armed (``sync="batch"``): every
  send and ack is journaled before the reply frame goes out.  The
  gap to the in-memory number is the committed durability overhead
  README.md quotes.

End-to-end open-loop latency is the ledger's ``saga5_open`` workload
(``python3 bench/run.py``).

Run standalone::

    PYTHONPATH=src python benchmarks/bench_net.py
"""

from __future__ import annotations

import os
import shutil
import tempfile
import time

#: send→receive→ack cycles per throughput measurement.
MESSAGES = 300


def request_reply_throughput(messages: int = MESSAGES) -> float:
    """RPC round-trips/sec for send→receive→ack over one connection."""
    from repro.net.client import SocketBus
    from repro.net.server import BusServerThread

    queue = "node:bench"
    with BusServerThread() as broker:
        with SocketBus(*broker.address, name="bench-rr") as bus:
            # Warmup: connection, first-frame costs.
            mid = bus.send(queue, {"warm": True})
            bus.ack(queue, bus.receive(queue)[0])
            start = time.perf_counter()
            for index in range(messages):
                bus.send(queue, {"i": index})
                taken = bus.receive(queue)
                bus.ack(queue, taken[0])
            elapsed = time.perf_counter() - start
    return (3 * messages) / elapsed


def durable_request_reply_throughput(
    messages: int = MESSAGES, sync: str = "batch"
) -> float:
    """RPC round-trips/sec with the write-ahead bus log journaling
    every send/ack (``batch`` sync: buffered writes, fsync at commit
    points — the recommended production policy)."""
    from repro.net.client import SocketBus
    from repro.net.server import BusServerThread

    queue = "node:bench"
    base = "/dev/shm" if os.path.isdir("/dev/shm") else None
    directory = tempfile.mkdtemp(prefix="bench-buslog-", dir=base)
    try:
        with BusServerThread(
            durable_dir=directory, durable_sync=sync
        ) as broker:
            with SocketBus(*broker.address, name="bench-durable") as bus:
                bus.send(queue, {"warm": True})
                bus.ack(queue, bus.receive(queue)[0])
                start = time.perf_counter()
                for index in range(messages):
                    bus.send(queue, {"i": index})
                    taken = bus.receive(queue)
                    bus.ack(queue, taken[0])
                elapsed = time.perf_counter() - start
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    return (3 * messages) / elapsed


if __name__ == "__main__":
    volatile = request_reply_throughput()
    durable = durable_request_reply_throughput()
    print("request_reply          %10.1f round-trips/sec" % volatile)
    print(
        "durable_request_reply  %10.1f round-trips/sec (%.1f%% overhead)"
        % (durable, 100.0 * (1.0 - durable / volatile))
    )
