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
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from repro.sim.config import SimConfig
from repro.sim.packet import Packet

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np

__all__ = ["StatsCollector", "WindowStats", "percentile99", "numpy_reduction"]

#: A reduction of a non-empty latency window, an ``array('d')``, to its
#: ``(mean, p99)``.
Reduction = Callable[[array], Tuple[float, float]]


def percentile99(values: "np.ndarray") -> float:
    """``np.percentile(values, 99)`` (the default linear method), bit
    for bit, for a non-empty array of finite values.

    It selects the two order statistics around the virtual index
    ``(n - 1) * 0.99`` with ``np.partition`` and interpolates them as
    numpy's ``_lerp`` does.  ``np.percentile`` itself imports
    ``numpy.ma`` on its first call in a process, which costs more than
    the whole reduction.  The compiled kernel's ``window_reduce``
    computes the same value in C.
    """
    import numpy as np

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


def numpy_reduction() -> Reduction:
    """The reference reduction of a latency window: numpy's mean (its
    pairwise sum over the count) and :func:`percentile99`.

    numpy is imported here, by the object engine as it is built, so a
    run imports nothing; the kernel hands the collector its own C
    replica instead (``window_reduce`` in ``_kernel.c``), and the
    goldens hold the two to each other bit for bit.
    """
    import numpy as np

    def reduce(latencies: array) -> Tuple[float, float]:
        lat = np.frombuffer(latencies)
        return float(lat.mean()), percentile99(lat)

    return reduce


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


#: Indices into ``StatsCollector.counts`` and ``.times`` (``_kernel.c``'s
#: ``ST_*`` and ``TM_*``).
INJECTED, INJECTED_IN_WINDOW, EJECTED, EJECTED_IN_WINDOW, BYTES_IN_WINDOW, \
    HOPS_IN_WINDOW = range(6)
WINDOW_START, WINDOW_END, FIRST_INJECT, LAST_EJECT = range(4)

#: Route kinds a collector counts (``kind_totals``'s length).
KIND_CAPACITY = 16


def _counter(i: int) -> property:
    def put(self, value: int) -> None:
        self.counts[i] = value

    return property(lambda self: self.counts[i], put)


def _time(i: int) -> property:
    """An entry of ``times``, where ``None`` is stored as infinity."""

    def put(self, value: Optional[float]) -> None:
        self.times[i] = math.inf if value is None else value

    return property(lambda self: None if self.times[i] == math.inf
                    else self.times[i], put)


class StatsCollector:
    """Records injections and ejections; computes windowed metrics.

    The counters live in :attr:`counts`, an ``array('q')`` of six, and
    the window bounds and first-send and last-delivery times in
    :attr:`times`, an ``array('d')`` of four (an open window end and a
    time not yet recorded are infinities); the attributes below read
    and write them.  :attr:`kind_totals` counts in-window deliveries
    per route kind, indexed by :attr:`kind_names` (:meth:`kind_index`),
    and :attr:`eject_count_per_node`, an ``array('q')`` of one per node,
    counts every delivery by destination.  Both engines update these
    arrays in place, the compiled kernel through views it holds for its
    lifetime, so they are current at every moment of a run.
    :attr:`reduce_latencies`, set by the engine as it is built, reduces
    the latency window in :meth:`window_stats`.
    """

    injected_total = _counter(INJECTED)
    in_window_injected = _counter(INJECTED_IN_WINDOW)
    ejected_total = _counter(EJECTED)
    in_window_ejected = _counter(EJECTED_IN_WINDOW)
    in_window_bytes = _counter(BYTES_IN_WINDOW)
    hops_sum = _counter(HOPS_IN_WINDOW)
    window_start = _time(WINDOW_START)
    window_end = _time(WINDOW_END)
    first_inject = _time(FIRST_INJECT)
    last_eject = _time(LAST_EJECT)

    def __init__(self, num_nodes: int, config: SimConfig):
        self.num_nodes = num_nodes
        self.config = config
        self.counts = array("q", bytes(48))
        self.times = array("d", (0.0, math.inf, math.inf, math.inf))
        self.eject_count_per_node = array("q", bytes(8 * num_nodes))
        #: In-window latencies (ns) in ejection order, as raw float64.
        self.latencies = array("d")
        #: The window's ``(mean, p99)`` reduction: the kernel's C
        #: replica or :func:`numpy_reduction` (the default).
        self.reduce_latencies: Optional[Reduction] = None
        #: Route kinds by index, in the order first seen.
        self.kind_names: List[str] = ["minimal", "indirect"]
        self.kind_totals = array("q", bytes(8 * KIND_CAPACITY))

    @property
    def kind_counts(self) -> Dict[str, int]:
        """The nonzero :attr:`kind_totals` by name."""
        return {name: n for name, n in zip(self.kind_names, self.kind_totals)
                if n}

    def kind_index(self, kind: str) -> int:
        """*kind*'s index in :attr:`kind_names`, appended when new (a
        ``ValueError`` past the capacity, ``len(kind_totals)``)."""
        names, cap = self.kind_names, len(self.kind_totals)
        if kind not in names:
            if len(names) >= cap:
                raise ValueError(f"route kind {kind!r} past the {cap} a "
                                 f"collector counts")
            names.append(kind)
        return names.index(kind)

    def set_window(self, start: float, end: Optional[float]) -> None:
        """Restrict windowed metrics to ``[start, end)``, in place."""
        self.window_start = start
        self.window_end = end

    # -- recording (the object engine's hot path) ------------------------------

    def record_inject(self, pkt: Packet) -> None:
        c, w, t = self.counts, self.times, pkt.send_time
        c[INJECTED] += 1
        if w[FIRST_INJECT] == math.inf:
            w[FIRST_INJECT] = t
        if w[WINDOW_START] <= t < w[WINDOW_END]:
            c[INJECTED_IN_WINDOW] += 1

    def record_eject(self, pkt: Packet) -> None:
        c, w, t = self.counts, self.times, pkt.eject_time
        c[EJECTED] += 1
        w[LAST_EJECT] = t
        self.eject_count_per_node[pkt.dst_node] += 1
        if w[WINDOW_START] <= t < w[WINDOW_END]:
            c[EJECTED_IN_WINDOW] += 1
            c[BYTES_IN_WINDOW] += pkt.size
            c[HOPS_IN_WINDOW] += pkt.num_hops
            self.latencies.append(t - pkt.gen_time)
            self.kind_totals[self.kind_index(pkt.kind)] += 1

    def absorb_kernel(self, latencies: bytes) -> None:
        """Take a block of in-window latencies from the compiled kernel.

        The kernel (:mod:`repro.sim.vec.kernel`) records every send and
        delivery itself, writing the arrays above in place; only the
        in-window latencies collect in a block of its own, handed over
        here when it fills and when a run returns, so they are complete
        once a run has.  *latencies* are the block's raw float64 bytes
        in ejection order (the order-sensitive pairwise mean stays
        bit-identical).
        """
        self.latencies.frombytes(latencies)

    # -- reductions ------------------------------------------------------------

    def window_stats(self) -> WindowStats:
        """Reduce the recorded window into a :class:`WindowStats`."""
        if self.window_end is None:
            raise ValueError("window_stats() requires a bounded window")
        window = self.window_end - self.window_start
        rate_bytes_per_ns = self.config.link_bandwidth_gbps / 8.0  # GB/s == B/ns
        capacity = self.num_nodes * window * rate_bytes_per_ns
        mean = p99 = None
        if self.latencies:
            reduce = self.reduce_latencies or numpy_reduction()
            mean, p99 = reduce(self.latencies)
        return WindowStats(
            throughput=self.in_window_bytes / capacity if capacity > 0 else 0.0,
            mean_latency_ns=mean,
            p99_latency_ns=p99,
            ejected_packets=self.in_window_ejected,
            ejected_bytes=self.in_window_bytes,
            injected_packets=self.in_window_injected,
            window_ns=window,
            kind_counts=self.kind_counts,
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
        import numpy as np

        counts = np.array(self.eject_count_per_node, dtype=np.float64)
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
