"""In-memory spans recorded around the benchmark's calls into each layer.

A span is ``{id, name, start, end, parent, workload, rep}``; ``name`` is
the module that owns the timed call (``repro.topology``,
``repro.sim.vec.kernel``, ...), so grouping spans by name groups them by
layer.  Spans stay in memory and are written out once, when the
benchmark ends.  A disabled :class:`Tracer` records nothing, so
end-to-end reps can share the traced code path at no cost.
"""

from __future__ import annotations

import contextlib
import time
from typing import Dict, Iterable, List, Optional


class Tracer:
    """Span recorder for one rep of one workload."""

    def __init__(self, workload: str, rep: int, enabled: bool = True):
        self.workload = workload
        self.rep = rep
        self.enabled = enabled
        self.spans: List[dict] = []
        self._stack: List[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        record = {
            "id": len(self.spans),
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "workload": self.workload,
            "rep": self.rep,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter()


def _covered(intervals: Iterable[tuple], lo: float, hi: float) -> float:
    """Length of the union of *intervals* clipped to ``[lo, hi]``."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: List[dict]) -> List[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: Dict[Optional[int], List[tuple]] = {}
    for s in spans:
        children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    return [
        (s["end"] - s["start"])
        - _covered(children.get(s["id"], ()), s["start"], s["end"])
        for s in spans
    ]


def layer_self_times(spans: List[dict]) -> Dict[str, float]:
    """Self time summed per span name (that is, per layer)."""
    out: Dict[str, float] = {}
    for s, own in zip(spans, self_times(spans)):
        out[s["name"]] = out.get(s["name"], 0.0) + own
    return out


def top_level_seconds(spans: List[dict]) -> float:
    """Wall time covered by spans that have no parent."""
    top = [(s["start"], s["end"]) for s in spans if s["parent"] is None]
    if not top:
        return 0.0
    return _covered(top, min(a for a, _ in top), max(b for _, b in top))
