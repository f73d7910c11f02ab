"""The load generator: one process, two threads, two broker connections.

A *sender* issues requests in the node's own wire format to
``node:worker``; a *collector* polls ``replies:driver``, stamps each
reply and acks it.  Open loop: request *i* is due at ``start + i/rate``
and is sent then whether or not earlier ones came back, and its latency
counts from the instant it was due.  Closed loop: a fixed number of
requests stay outstanding and latency counts from the send.

``python3 bench/loadgen.py '<json config>'`` prints one ``REPORT``.
"""

from __future__ import annotations

import json
import sys
import threading
import time

from common import emit, process_usage, use_repo_sources
from spans import Recorder, perf
from workloads import OUTSTANDING, check_saga_reply

use_repo_sources()

NODE_QUEUE = "node:worker"
REPLY_QUEUE = "replies:driver"
COLLECTOR_IDLE_S = 0.0005
#: how long after the last send a reply may still arrive.
DRAIN_S = 20.0


def main(config: dict) -> None:
    import repro.net.client as client_module
    from repro.net import FrameDecoder, SocketBus

    recorder = Recorder(config["trace"])
    recorder.wrap(client_module, "encode_frame", "net.frames")
    recorder.wrap(client_module, "decode_envelope", "net.frames")
    recorder.wrap(FrameDecoder, "feed", "net.frames")
    sender_bus = SocketBus(config["host"], config["port"], name="driver-send")
    collector_bus = SocketBus(
        config["host"], config["port"], name="driver-collect"
    )
    recorder.wrap(sender_bus, "send", "net.client")
    recorder.wrap(collector_bus, "receive", "net.client")
    recorder.wrap(collector_bus, "ack", "net.client")

    total = config["warm"] + config["timed"]
    rids = ["r%06d" % index for index in range(total)]
    due = [0.0] * total
    sent_at = [0.0] * total
    send_done = [0.0] * total
    received_at: dict[str, float] = {}
    replies: dict[str, dict] = {}
    slots = threading.Semaphore(OUTSTANDING)
    open_loop = config["loop"] == "open"
    last_send = None  # set once the sender is done; the collector reads it

    def collect() -> None:
        receive, ack = collector_bus.receive, collector_bus.ack
        while len(received_at) < total:
            taken = receive(REPLY_QUEUE)
            if taken is None:
                if last_send is not None and perf() > last_send + DRAIN_S:
                    return
                time.sleep(COLLECTOR_IDLE_S)
                continue
            now = perf()
            msg_id, body = taken
            rid = body.get("request_id")
            if rid not in received_at:
                received_at[rid] = now
                replies[rid] = body
                slots.release()
            ack(REPLY_QUEUE, msg_id)

    collector = threading.Thread(target=collect, name="collector")
    ready_at = perf()
    collector.start()
    send = sender_bus.send
    process = config["process"]
    start = perf() + 0.005
    for index, rid in enumerate(rids):
        if open_loop:
            due[index] = start + index / config["rate"]
            wait = due[index] - perf()
            if wait > 0:
                time.sleep(wait)
        else:
            if not slots.acquire(timeout=DRAIN_S):
                break  # replies stopped coming: the rest count as failed
            due[index] = perf()
        sent_at[index] = perf()
        send(
            NODE_QUEUE,
            {
                "type": "request",
                "request_id": rid,
                "process": process,
                "input": {},
                "reply_to": REPLY_QUEUE,
            },
        )
        send_done[index] = perf()
    last_send = perf()
    collector.join()
    sender_bus.close()
    collector_bus.close()

    problems = {}
    for rid in rids:
        if rid not in replies:
            problems[rid] = "no reply"
            continue
        problem = check_saga_reply(
            replies[rid], config["steps"], config["expect"]
        )
        if problem:
            problems[rid] = problem
    fields = {
        "ready_at": ready_at,
        "rids": rids,
        "due": due,
        "sent_at": sent_at,
        "send_done": send_done,
        "received_at": [received_at.get(rid) for rid in rids],
        "problems": problems,
        "trace": recorder.export() if recorder.enabled else None,
    }
    fields.update(process_usage())
    emit("REPORT", fields)


if __name__ == "__main__":
    main(json.loads(sys.argv[1]))
