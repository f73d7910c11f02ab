#!/usr/bin/env python3
"""Distributed workflow over persistent messages (Exotica/FMQM style).

Two autonomous workflow nodes — a front office and a back-office
worker — cooperate through durable queues.  The front's process calls
the worker's process remotely; mid-call the worker crashes and is
rebuilt from its journal, and the persistent request message carries
the work through: the final result is exact, nothing is lost or run
twice.

Run with::

    python examples/distributed_cluster.py
"""

import os
import tempfile

from repro.store import DurableStore
from repro.wfms.distributed import run_cluster
from repro.wfms.messaging import MessageBus
from repro.workloads.distributed_demo import (
    configure_worker,
    make_requester,
    make_worker,
)


def main() -> None:
    bus = MessageBus()
    store_dir = os.path.join(tempfile.mkdtemp(), "worker")
    worker = make_worker(
        bus, store_factory=lambda: DurableStore(store_dir)
    )
    front = make_requester(bus)

    instance = front.engine.start_process("Front", {"N": 21})
    print("front started instance", instance, "(N = 21)")

    front.engine.step()  # the remote request is now on the bus
    print("request queued for the worker:",
          bus.depth("node:worker"), "message(s)")

    print("\n*** the worker machine fails ***")
    worker.crash()
    print("worker volatile state lost; the bus and store survive")

    worker.rebuild(configure_worker)
    print("worker rebuilt from its journal; resuming the cluster\n")

    rounds = run_cluster([front, worker], watch=[(front, instance)])
    result = front.engine.output(instance)["Result"]
    print("converged in %d rounds" % rounds)
    print("result: 21 * 2 + 1 =", result)
    assert result == 43
    served = [
        i.instance_id
        for i in worker.engine.navigator.instances()
    ]
    print("worker served instances:", served, "(exactly one — no duplicates)")


if __name__ == "__main__":
    main()
