"""From the traced rep's spans to the per-layer cost ladder.

Every row is a cost *per request* (busy milliseconds, or a count)
summed over the whole rep and divided by the requests it served, except
the two queue waits (p50 over the timed requests), the absolute set-up
and recovery rows, and ``trace_coverage``.  A layer whose wrap point
was missing reports ``None``.
"""

from __future__ import annotations

from statistics import median

from spans import LOOP, self_totals, shares, timeline

#: name, unit, better — the ``per_layer`` list of BENCHMARK.json, in
#: ladder order.  ``navigator`` includes the condition evaluator and the
#: plan lookups, which cannot be split from outside the engine.
PER_LAYER = [
    ("net.client_ms", "ms", "lower"),
    ("net.frames_ms", "ms", "lower"),
    ("net.server_ms", "ms", "lower"),
    ("net.buslog_ms", "ms", "lower"),
    ("broker_cpu_ms", "ms", "lower"),
    ("inbox_wait_ms", "ms", "lower"),
    ("reply_wait_ms", "ms", "lower"),
    ("wfms.distributed_ms", "ms", "lower"),
    ("wfms.navigator_ms", "ms", "lower"),
    ("tx_ms", "ms", "lower"),
    ("wfms.journal_ms", "ms", "lower"),
    ("fsync_ms", "ms", "lower"),
    ("store_ms", "ms", "lower"),
    ("setup_core_ms", "ms", "lower"),
    ("wfms.recovery_ms", "ms", "lower"),
    ("store.open_ms", "ms", "lower"),
    ("store.snapshot_ms", "ms", "lower"),
    ("bus_ops_per_request", "count", "lower"),
    ("useful_receive_ratio", "ratio", "higher"),
    ("buslog_records_per_request", "count", "lower"),
    ("journal_records_per_request", "count", "lower"),
    ("journal_bytes_per_request", "count", "lower"),
    ("fsyncs_per_request", "count", "lower"),
    ("steps_per_request", "count", "lower"),
    ("trace_coverage", "ratio", "higher"),
]

#: engine-process layers and the wrap point whose absence voids each.
ENGINE_LAYERS = {
    "wfms.navigator_ms": ("wfms.navigator", "Engine.step"),
    "tx_ms": ("tx", None),
    "wfms.journal_ms": ("wfms.journal", "SegmentedJournal.append"),
    "fsync_ms": ("fsync", "os.fsync"),
    "store_ms": ("store", "DurableStore.maybe_checkpoint"),
}


def _per_request(totals, layer, requests, missing, wrap_point):
    if wrap_point is not None and wrap_point in missing:
        return None
    return 1e3 * totals.get(layer, {}).get("self_s", 0.0) / requests


def engine_rows(trace: dict, requests: int, setup: dict) -> dict:
    """The rows every workload has: the engine process's layers."""
    totals = self_totals(trace["spans"])
    missing = set(trace["missing"])
    counts = trace["counts"]
    rows = {
        name: _per_request(totals, layer, requests, missing, wrap_point)
        for name, (layer, wrap_point) in ENGINE_LAYERS.items()
    }
    rows.update(
        {
            "setup_core_ms": sum(
                setup.get(key, 0.0)
                for key in ("translate_ms", "register_ms")
            ),
            "journal_records_per_request": counts.get("journal_records", 0)
            / requests,
            "journal_bytes_per_request": counts.get("journal_bytes", 0)
            / requests,
            "fsyncs_per_request": counts.get("fsyncs", 0) / requests,
            "steps_per_request": counts.get("steps", 0) / requests,
            "store_max_stall_ms": 1e3 * totals.get("store", {}).get("max_s", 0.0),
        }
    )
    return rows


def wall_share(times, layers, begin: float, end: float) -> dict[str, float]:
    """Each layer's share of one thread's wall clock over an interval."""
    spent = shares(times, layers, begin, end)
    whole = sum(spent.values())
    return {layer: seconds / whole for layer, seconds in sorted(spent.items())}


def local_ladder(child: dict, requests: int) -> dict:
    """Ladder of an in-process workload: no bus, so every ``net`` row
    and both queue waits are exactly zero."""
    trace = child["trace"]
    rows = dict.fromkeys((name for name, __, __ in PER_LAYER), 0.0)
    rows.update(engine_rows(trace, requests, child["setup"]))
    totals = self_totals(trace["spans"])
    for layer in ("wfms.recovery", "store.open", "store.snapshot"):
        rows[layer + "_ms"] = 1e3 * totals.get(layer, {}).get("self_s", 0.0)
    rows["useful_receive_ratio"] = 0.0
    # Everything the engine thread did is inside a named span or the
    # bench-owned loop around it.
    times, layers = timeline(trace["spans"])
    if times:
        rows["wall_share"] = wall_share(
            times, layers, child["ready_at"], child["ended"]
        )
        rows["trace_coverage"] = 1.0 - rows["wall_share"].get(LOOP, 0.0)
    return rows


def net_ladder(driver: dict, node: dict, broker: dict, timed: list[int]) -> dict:
    """Ladder of a networked workload.  ``timed`` indexes the driver's
    per-request arrays."""
    requests = len(driver["rids"])
    node_trace, broker_trace = node["trace"], broker["trace"]
    rows = dict.fromkeys((name for name, __, __ in PER_LAYER), 0.0)
    rows.update(engine_rows(node_trace, requests, node["setup"]))
    node_totals = self_totals(node_trace["spans"])
    broker_totals = self_totals(broker_trace["spans"])
    node_missing = set(node_trace["missing"])
    broker_missing = set(broker_trace["missing"])

    def broker_ms(*layers):
        return 1e3 * sum(
            broker_totals.get(layer, {}).get("self_s", 0.0) for layer in layers
        ) / requests

    rows["net.client_ms"] = _per_request(
        node_totals, "net.client", requests, node_missing,
        "SocketBus.receive_with_headers",
    )
    frames = _per_request(
        node_totals, "net.frames", requests, node_missing,
        "repro.net.client.encode_frame",
    )
    rows["net.frames_ms"] = (
        None if frames is None else frames + broker_ms("net.frames")
    )
    rows["net.server_ms"] = (
        None if "MessageBus.send_detailed" in broker_missing
        else broker_ms("net.server")
    )
    # The bus log's own fsyncs are its cost, not the engine's.
    rows["net.buslog_ms"] = (
        None if "BusLog.record" in broker_missing
        else broker_ms("net.buslog", "fsync")
    )
    rows["broker_cpu_ms"] = (
        1e3 * (broker["cpu_s"] - broker["ready_cpu_s"]) / requests
    )
    rows["wfms.distributed_ms"] = _per_request(
        node_totals, "wfms.distributed", requests, node_missing,
        "WorkflowNode.pump",
    )
    rows["node_idle_ms"] = 1e3 * node_totals.get("idle", {}).get(
        "self_s", 0.0
    ) / requests
    counts = node_trace["counts"]
    rows["bus_ops_per_request"] = (
        node_totals.get("net.client", {}).get("calls", 0) / requests
    )
    rows["useful_receive_ratio"] = counts.get("receives_useful", 0) / max(
        1, counts.get("receives", 0)
    )
    rows["buslog_records_per_request"] = (
        broker["buslog_records"] or 0
    ) / requests
    rows["broker_max_stall_ms"] = 1e3 * broker_totals.get(
        "net.buslog", {}
    ).get("max_s", 0.0)

    # -- the request's own path, from stamps ----------------------------
    received = node_trace["stamps"].get("node_recv", {})
    replied = node_trace["stamps"].get("node_replied", {})
    times, layers = timeline(node_trace["spans"])
    if received and replied:
        # The node thread's wall clock while it had requests to serve.
        rows["wall_share"] = wall_share(
            times, layers, min(received.values()), max(replied.values())
        )
    path: dict[str, list[float]] = {}
    coverage, roots = [], []
    for index in timed:
        rid = driver["rids"][index]
        end = driver["received_at"][index]
        if end is None or rid not in received or rid not in replied:
            continue
        root = end - driver["due"][index]
        roots.append(root)
        parts = {
            "generator_late": driver["sent_at"][index] - driver["due"][index],
            "driver_send": driver["send_done"][index] - driver["sent_at"][index],
            "inbox_wait": received[rid] - driver["send_done"][index],
            "reply_wait": end - replied[rid],
        }
        for layer, seconds in shares(
            times, layers, received[rid], replied[rid]
        ).items():
            parts["node:" + layer] = seconds
        for key, seconds in parts.items():
            path.setdefault(key, []).append(seconds)
        named = sum(
            seconds for key, seconds in parts.items() if key != "node:" + LOOP
        )
        coverage.append(named / root if root > 0 else 0.0)
    if coverage:
        rows["inbox_wait_ms"] = 1e3 * median(path["inbox_wait"])
        rows["reply_wait_ms"] = 1e3 * median(path["reply_wait"])
        rows["trace_coverage"] = median(coverage)
        count = len(coverage)
        rows["path_root_mean_ms"] = 1e3 * sum(roots) / count
        rows["path_mean_ms"] = {
            key: 1e3 * sum(values) / count
            for key, values in sorted(path.items())
        }
    return rows
