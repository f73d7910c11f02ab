"""Bench-owned span recorder and the analysis that turns spans into a
per-layer cost ladder.

Nothing here touches ``repro``: a :class:`Recorder` times calls by
replacing a *public* attribute (an instance method, a module-level
function, a class method) with a timed version of itself.  Spans stay
in memory and travel to the parent in the child's report.

A span is ``[layer, name, start, end, self_seconds]``; ``start``/``end``
are ``time.perf_counter()`` stamps, which on Linux read the system-wide
monotonic clock, so stamps taken in different processes compare.
``self_seconds`` is the span's duration minus the time its child spans
cover.  Spans of one thread nest properly, which is what
:func:`timeline` relies on.
"""

from __future__ import annotations

import bisect
import threading
import time

perf = time.perf_counter

#: label of the time a thread spends outside every span (the
#: bench-owned serving loop itself).
LOOP = "loop"


class Recorder:
    """Spans, stamps and counters of one process.

    Disabled (the untraced reps) every method is a no-op and nothing
    is replaced, so the system under test runs unmodified.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[list] = []
        #: wrap points that did not exist: their layer reports null.
        self.missing: list[str] = []
        #: stamp name -> {request id: perf_counter()}.
        self.stamps: dict[str, dict[str, float]] = {}
        self.counts: dict[str, float] = {}
        self._local = threading.local()

    def count(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def stamp(self, key: str, rid, when: float) -> None:
        self.stamps.setdefault(key, {})[str(rid)] = when

    def timed(self, original, layer: str, name: str, after=None):
        """``original`` wrapped in a span; ``after(recorder, args,
        result, start, end)`` runs outside the span (stamps, counts)."""
        if not self.enabled:
            return original
        spans, local = self.spans, self._local

        def traced(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            stack.append(0.0)
            start = perf()
            try:
                result = original(*args, **kwargs)
            finally:
                end = perf()
                children = stack.pop()
                if stack:
                    stack[-1] += end - start
                spans.append([layer, name, start, end, end - start - children])
            if after is not None:
                after(self, args, result, start, end)
            return result

        return traced

    def wrap(self, owner, attr: str, layer: str, after=None) -> None:
        """Replace ``owner.attr`` with its timed version.  A missing
        attribute is noted and skipped: a later refactor that moves a
        wrap point costs one ladder row, never the run."""
        if not self.enabled:
            return
        name = "%s.%s" % (
            getattr(owner, "__name__", type(owner).__name__),
            attr,
        )
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.append(name)
            return
        setattr(owner, attr, self.timed(original, layer, name, after))

    def export(self) -> dict:
        return {
            "spans": self.spans,
            "missing": self.missing,
            "stamps": self.stamps,
            "counts": self.counts,
        }


# ---------------------------------------------------------------------------
# analysis (runs in the parent)
# ---------------------------------------------------------------------------


def self_totals(spans) -> dict[str, dict[str, float]]:
    """Per layer: span count, summed self seconds, longest single span."""
    out: dict[str, dict[str, float]] = {}
    for layer, __, start, end, own in spans:
        row = out.setdefault(layer, {"calls": 0, "self_s": 0.0, "max_s": 0.0})
        row["calls"] += 1
        row["self_s"] += own
        row["max_s"] = max(row["max_s"], end - start)
    return out


def timeline(spans) -> tuple[list[float], list[str]]:
    """Flatten one thread's nested spans into an exclusive timeline:
    ``layers[i]`` is the innermost open span's layer during
    ``[times[i], times[i + 1])``, :data:`LOOP` when none is open."""
    times: list[float] = []
    layers: list[str] = []
    stack: list[tuple[float, str]] = []

    def close_until(limit: float) -> None:
        while stack and stack[-1][0] <= limit:
            ended, __ = stack.pop()
            times.append(ended)
            layers.append(stack[-1][1] if stack else LOOP)

    for layer, __, start, end, __own in sorted(
        spans, key=lambda s: (s[2], -s[3])
    ):
        close_until(start)
        times.append(start)
        layers.append(layer)
        stack.append((end, layer))
    close_until(float("inf"))
    return times, layers


def shares(times, layers, begin: float, end: float) -> dict[str, float]:
    """Seconds each layer was innermost during ``[begin, end)``."""
    out: dict[str, float] = {}
    if end <= begin or not times:
        return out
    index = max(bisect.bisect_right(times, begin) - 1, 0)
    if begin < times[0]:
        out[LOOP] = min(end, times[0]) - begin
    while index < len(times) and times[index] < end:
        left = max(times[index], begin)
        right = min(times[index + 1] if index + 1 < len(times) else end, end)
        if right > left:
            out[layers[index]] = out.get(layers[index], 0.0) + right - left
        index += 1
    return out
