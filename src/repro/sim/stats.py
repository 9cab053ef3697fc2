"""Measurement collection for simulations.

Implements the paper's metrics:

- *throughput*: bytes ejected during the measurement window, normalised
  per node as a fraction of the injection bandwidth (Sec. 4.3);
- *average packet latency*: generation-to-ejection delay of packets
  ejected inside the window (includes source queueing, so it diverges
  beyond saturation as in the paper's delay plots);
- *effective throughput of an exchange*: total bytes divided by
  completion time -- first injection to last ejection -- normalised per
  node (Sec. 4.4).
"""

from __future__ import annotations

import math
from array import array
from typing import Dict, Optional

import numpy as np

from repro.sim.config import SimConfig
from repro.sim.packet import Packet

__all__ = ["StatsCollector", "WindowStats", "percentile99"]


def percentile99(values: np.ndarray) -> float:
    """``np.percentile(values, 99)`` (the default linear method), bit
    for bit, for a non-empty array of finite values.

    It selects the two order statistics around the virtual index
    ``(n - 1) * 0.99`` with ``np.partition`` and interpolates them as
    numpy's ``_lerp`` does.  ``np.percentile`` itself imports
    ``numpy.ma`` on its first call in a process, which costs more than
    the whole reduction.
    """
    n = len(values)
    v = (n - 1) * 0.99
    lo = math.floor(v)
    hi = min(lo + 1, n - 1)  # n == 1: both are the only value
    g = v - lo
    part = np.partition(values, (lo, hi))
    a = float(part[lo])
    b = float(part[hi])
    d = b - a
    return b - d * (1.0 - g) if g >= 0.5 else a + d * g


class WindowStats:
    """Aggregated results of one measurement window."""

    __slots__ = (
        "throughput",
        "mean_latency_ns",
        "p99_latency_ns",
        "ejected_packets",
        "ejected_bytes",
        "injected_packets",
        "window_ns",
        "kind_counts",
        "mean_hops",
    )

    def __init__(self, **kw: object) -> None:
        for name in self.__slots__:
            setattr(self, name, kw.get(name))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        lat = self.mean_latency_ns
        return (
            f"<WindowStats thr={self.throughput:.3f} "
            f"lat={lat if lat is None else round(lat, 1)}ns "
            f"ej={self.ejected_packets}>"
        )


class StatsCollector:
    """Records injections and ejections; computes windowed metrics."""

    def __init__(self, num_nodes: int, config: SimConfig):
        self.num_nodes = num_nodes
        self.config = config
        self.window_start = 0.0
        self.window_end: Optional[float] = None
        self.eject_count_per_node = np.zeros(num_nodes, dtype=np.int64)
        self.reset()

    def reset(self) -> None:
        """Clear all recorded state (window bounds are kept).

        The per-node eject counts are zeroed in place: the compiled
        kernel increments that array directly for as long as it lives.
        """
        self.injected_total = 0
        self.ejected_total = 0
        self.in_window_ejected = 0
        self.in_window_bytes = 0
        self.in_window_injected = 0
        #: In-window latencies (ns) in ejection order, as raw float64.
        self.latencies = array("d")
        self.kind_counts: Dict[str, int] = {}
        self.hops_sum = 0
        self.first_inject: Optional[float] = None
        self.last_eject: Optional[float] = None
        self.eject_count_per_node.fill(0)

    def set_window(self, start: float, end: Optional[float]) -> None:
        """Restrict windowed metrics to ejections in ``[start, end)``."""
        self.window_start = start
        self.window_end = end

    # -- recording (the object engine's hot path) ------------------------------

    def record_inject(self, pkt: Packet) -> None:
        self.injected_total += 1
        if self.first_inject is None:
            self.first_inject = pkt.send_time
        if pkt.send_time >= self.window_start and (
            self.window_end is None or pkt.send_time < self.window_end
        ):
            self.in_window_injected += 1

    def record_eject(self, pkt: Packet) -> None:
        self.ejected_total += 1
        t = pkt.eject_time
        self.last_eject = t
        self.eject_count_per_node[pkt.dst_node] += 1
        if t >= self.window_start and (self.window_end is None or t < self.window_end):
            self.in_window_ejected += 1
            self.in_window_bytes += pkt.size
            self.latencies.append(t - pkt.gen_time)
            self.kind_counts[pkt.kind] = self.kind_counts.get(pkt.kind, 0) + 1
            self.hops_sum += pkt.num_hops

    def absorb_kernel(
        self,
        injected: int,
        in_window_injected: int,
        first_inject: Optional[float],
        ejected: int,
        in_window_ejected: int,
        in_window_bytes: int,
        hops_sum: int,
        last_eject: Optional[float],
        latencies: Optional[bytes],
        kind_counts: Optional[Dict[str, int]],
    ) -> None:
        """Merge statistics accumulated C-side by the compiled kernel.

        The kernel (:mod:`repro.sim.vec.kernel`) records every send and
        delivery itself -- it never calls :meth:`record_inject` or
        :meth:`record_eject` -- in plain C counters and a latency
        block, flushing them here when the block fills, before any
        Python runs mid-run (a listener, a CALL, a completion callback),
        at run end and after a send made outside a run.  Every field
        merges exactly: counters are additive, the inject/eject
        timestamps combine by min/max (simulated time is monotone, so
        this reproduces the first/last semantics of the per-packet
        path), and *latencies* arrive as the raw float64 bytes of the
        kernel's latency block, in exact ejection order, so numpy's
        order-sensitive pairwise mean stays bit-identical.  The per-node
        eject counts need no merge: the kernel increments
        :attr:`eject_count_per_node` in place.
        """
        self.injected_total += injected
        self.in_window_injected += in_window_injected
        if first_inject is not None and (
            self.first_inject is None or first_inject < self.first_inject
        ):
            self.first_inject = first_inject
        self.ejected_total += ejected
        self.in_window_ejected += in_window_ejected
        self.in_window_bytes += in_window_bytes
        self.hops_sum += hops_sum
        if last_eject is not None and (
            self.last_eject is None or last_eject > self.last_eject
        ):
            self.last_eject = last_eject
        if latencies:
            self.latencies.frombytes(latencies)
        if kind_counts:
            for kind, count in kind_counts.items():
                self.kind_counts[kind] = self.kind_counts.get(kind, 0) + count

    # -- reductions ------------------------------------------------------------

    def window_stats(self) -> WindowStats:
        """Reduce the recorded window into a :class:`WindowStats`."""
        if self.window_end is None:
            raise ValueError("window_stats() requires a bounded window")
        window = self.window_end - self.window_start
        rate_bytes_per_ns = self.config.link_bandwidth_gbps / 8.0  # GB/s == B/ns
        capacity = self.num_nodes * window * rate_bytes_per_ns
        lat = np.frombuffer(self.latencies) if self.latencies else None
        return WindowStats(
            throughput=self.in_window_bytes / capacity if capacity > 0 else 0.0,
            mean_latency_ns=float(lat.mean()) if lat is not None else None,
            p99_latency_ns=percentile99(lat) if lat is not None else None,
            ejected_packets=self.in_window_ejected,
            ejected_bytes=self.in_window_bytes,
            injected_packets=self.in_window_injected,
            window_ns=window,
            kind_counts=dict(self.kind_counts),
            mean_hops=self.hops_sum / self.in_window_ejected
            if self.in_window_ejected
            else None,
        )

    def fairness_index(self) -> float:
        """Jain's fairness index over per-node ejection counts.

        1.0 = perfectly even service; 1/N = one node receives
        everything.  Only meaningful for patterns that address all
        nodes symmetrically (uniform, full permutations).
        """
        counts = self.eject_count_per_node.astype(np.float64)
        total = counts.sum()
        if total == 0:
            raise ValueError("no traffic recorded")
        squared = float((counts**2).sum())
        return float(total * total / (len(counts) * squared))

    def effective_throughput(self, total_bytes: int) -> float:
        """Exchange metric: bytes / completion-time, per node, vs link rate."""
        if self.first_inject is None or self.last_eject is None:
            raise ValueError("no traffic recorded")
        duration = self.last_eject - self.first_inject
        if duration <= 0:
            raise ValueError("degenerate exchange duration")
        rate_bytes_per_ns = self.config.link_bandwidth_gbps / 8.0
        return total_bytes / (duration * self.num_nodes * rate_bytes_per_ns)
