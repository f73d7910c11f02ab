"""Exporters: JSON snapshots and Prometheus text format.

Both exporters work on *pure data* — the output of
``MetricsRegistry.collect()`` and ``Tracer.export()`` — so a snapshot
written by one process (``write_snapshot``) can be rendered by
another (``repro/tools/monitor.py``) without importing engine state.
"""

from __future__ import annotations

import json
import os
from typing import Any


def engine_snapshot(engine) -> dict[str, Any]:
    """Everything the monitor needs about one engine, as plain data."""
    obs = engine.obs
    return {
        "clock": engine.clock,
        "observability_enabled": obs.enabled,
        "processes": engine.process_list(),
        "metrics": obs.metrics.collect(),
        "spans": obs.tracer.export(),
        "open_spans": len(obs.tracer.open_spans()),
        "hook_failures": [
            {"subscriber": f.subscriber, "error": repr(f.error)}
            for f in obs.hooks.failures
        ],
        "hook_subscriptions": obs.hooks.subscriptions(),
        "store": engine.store_status(),
    }


def write_snapshot(engine, path: str | os.PathLike[str]) -> dict[str, Any]:
    """Dump :func:`engine_snapshot` as JSON; returns the snapshot."""
    snapshot = engine_snapshot(engine)
    with open(os.fspath(path), "w", encoding="utf-8") as handle:
        json.dump(snapshot, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return snapshot


# ---------------------------------------------------------------------------
# Prometheus text format
# ---------------------------------------------------------------------------

def _format_labels(labels: dict[str, Any]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        '%s="%s"' % (key, _escape_label(str(value)))
        for key, value in sorted(labels.items())
    )
    return "{%s}" % inner


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_value(value: float) -> str:
    if value == int(value):
        return "%d" % int(value)
    return repr(value)


def to_prometheus_text(metrics) -> str:
    """Render a registry (or a ``collect()`` list) as Prometheus
    exposition text."""
    families = metrics if isinstance(metrics, list) else metrics.collect()
    lines: list[str] = []
    for family in families:
        name = family["name"]
        if family.get("help"):
            lines.append("# HELP %s %s" % (name, family["help"]))
        lines.append("# TYPE %s %s" % (name, family["type"]))
        for sample in family["samples"]:
            labels = sample.get("labels", {})
            if family["type"] == "histogram":
                for bucket in sample["buckets"]:
                    bucket_labels = dict(labels)
                    bucket_labels["le"] = _format_value(bucket["le"])
                    lines.append(
                        "%s_bucket%s %d"
                        % (name, _format_labels(bucket_labels), bucket["count"])
                    )
                inf_labels = dict(labels)
                inf_labels["le"] = "+Inf"
                lines.append(
                    "%s_bucket%s %d"
                    % (name, _format_labels(inf_labels), sample["count"])
                )
                lines.append(
                    "%s_sum%s %s"
                    % (name, _format_labels(labels), repr(sample["sum"]))
                )
                lines.append(
                    "%s_count%s %d"
                    % (name, _format_labels(labels), sample["count"])
                )
            else:
                lines.append(
                    "%s%s %s"
                    % (
                        name,
                        _format_labels(labels),
                        _format_value(sample["value"]),
                    )
                )
    return "\n".join(lines) + ("\n" if lines else "")


# ---------------------------------------------------------------------------
# span tree rendering (shared by the example and the monitor tool)
# ---------------------------------------------------------------------------

def span_tree_lines(spans: list[dict[str, Any]]) -> list[str]:
    """Render exported spans as one indented tree line per span,
    grouped by trace, children under parents in start order."""
    by_parent: dict[str, list[dict[str, Any]]] = {}
    by_id = {span["span_id"]: span for span in spans}
    roots: list[dict[str, Any]] = []
    for span in spans:
        parent = span.get("parent_id", "")
        if parent and parent in by_id:
            by_parent.setdefault(parent, []).append(span)
        else:
            roots.append(span)

    lines: list[str] = []

    def walk(span: dict[str, Any], depth: int) -> None:
        duration = span.get("duration")
        took = "%.3fms" % (duration * 1e3) if duration is not None else "open"
        label = span["name"]
        if span.get("kind"):
            label += " [%s]" % span["kind"]
        lines.append(
            "%s%s  (%s, trace=%s, span=%s)"
            % ("  " * depth, label, took, span["trace_id"], span["span_id"])
        )
        for child in sorted(
            by_parent.get(span["span_id"], ()), key=lambda s: s["start"]
        ):
            walk(child, depth + 1)

    for root in sorted(roots, key=lambda s: (s["trace_id"], s["start"])):
        walk(root, 0)
    return lines
