"""Experiment drivers: load sweeps and finite exchanges.

Thin orchestration over :class:`repro.sim.Network`; every data point
builds a fresh network so runs are independent and reproducible given
their seeds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from repro.routing.base import RoutingAlgorithm
from repro.sim import Network, PAPER_CONFIG, SimConfig
from repro.topology.base import Topology

__all__ = [
    "SweepPoint",
    "ReplicatedPoint",
    "run_sweep_point",
    "load_sweep",
    "load_sweep_replicated",
    "saturation_point",
    "run_exchange",
    "run_workload",
]


@dataclass
class SweepPoint:
    """One (offered load, measured behaviour) sample."""

    load: float
    throughput: float
    mean_latency_ns: Optional[float]
    p99_latency_ns: Optional[float]
    ejected_packets: int
    indirect_fraction: float

    def accepted(self, tolerance: float = 0.05) -> bool:
        """Did the network sustain the offered load (within *tolerance*)?"""
        return self.throughput >= self.load * (1.0 - tolerance)


def run_sweep_point(
    topology: Topology,
    routing: RoutingAlgorithm,
    pattern: object,
    load: float,
    warmup_ns: float = 2_000.0,
    measure_ns: float = 6_000.0,
    traffic_seed: int = 0,
    arrival: str = "poisson",
    config: SimConfig = PAPER_CONFIG,
    stats_out: Optional[dict] = None,
) -> SweepPoint:
    """Simulate one (topology, routing, pattern, load) point.

    This is the single-point primitive shared by the serial
    :func:`load_sweep` and the parallel :mod:`repro.orchestrate`
    executor, so both paths are bit-identical by construction.  If
    *stats_out* is given, kernel telemetry (``events_executed``) is
    written into it for throughput accounting.
    """
    net = Network(topology, routing, config)
    stats = net.run_synthetic(
        pattern,
        load=load,
        warmup_ns=warmup_ns,
        measure_ns=measure_ns,
        arrival=arrival,
        seed=traffic_seed,
    )
    if stats_out is not None:
        stats_out["events_executed"] = net.engine.events_executed
    total_kinds = sum(stats.kind_counts.values()) or 1
    return SweepPoint(
        load=load,
        throughput=stats.throughput,
        mean_latency_ns=stats.mean_latency_ns,
        p99_latency_ns=stats.p99_latency_ns,
        ejected_packets=stats.ejected_packets,
        indirect_fraction=stats.kind_counts.get("indirect", 0) / total_kinds,
    )


def load_sweep(
    topology: Topology,
    routing_factory: Callable[[Topology, int], RoutingAlgorithm],
    pattern_factory: Callable[[Topology], object],
    loads: Sequence[float],
    warmup_ns: float = 2_000.0,
    measure_ns: float = 6_000.0,
    seed: int = 0,
    arrival: str = "poisson",
    config: SimConfig = PAPER_CONFIG,
) -> List[SweepPoint]:
    """Sweep offered load and measure throughput/latency at each point.

    ``routing_factory(topology, seed)`` and ``pattern_factory(topology)``
    build fresh per-point instances, so adaptive-routing RNG state and
    network state never leak between points.

    For multi-core execution of large sweeps, build declarative jobs
    instead and run them through :mod:`repro.orchestrate` (see
    ``orchestrate.sweeps.sweep_jobs`` and ``run_jobs``); point ``i`` of
    this serial loop corresponds exactly to a job with
    ``seed = seed + i``.
    """
    points: List[SweepPoint] = []
    for i, load in enumerate(loads):
        points.append(
            run_sweep_point(
                topology,
                routing_factory(topology, seed + i),
                pattern_factory(topology),
                load,
                warmup_ns=warmup_ns,
                measure_ns=measure_ns,
                traffic_seed=seed + 1000 + i,
                arrival=arrival,
                config=config,
            )
        )
    return points


@dataclass
class ReplicatedPoint:
    """Mean and spread over independent seeds at one offered load."""

    load: float
    mean_throughput: float
    std_throughput: float
    mean_latency_ns: Optional[float]
    std_latency_ns: Optional[float]
    replicas: int


def load_sweep_replicated(
    topology: Topology,
    routing_factory: Callable[[Topology, int], RoutingAlgorithm],
    pattern_factory: Callable[[Topology], object],
    loads: Sequence[float],
    replicas: int = 3,
    warmup_ns: float = 2_000.0,
    measure_ns: float = 6_000.0,
    seed: int = 0,
    arrival: str = "poisson",
    config: SimConfig = PAPER_CONFIG,
) -> List[ReplicatedPoint]:
    """Like :func:`load_sweep` but averaged over *replicas* seeds.

    Gives mean +/- standard deviation per point so confidence in the
    reproduced numbers is quantified, not eyeballed.
    """
    if replicas < 1:
        raise ValueError(f"replicas={replicas} must be >= 1")
    out: List[ReplicatedPoint] = []
    for i, load in enumerate(loads):
        thrs: List[float] = []
        lats: List[float] = []
        for rep in range(replicas):
            rep_seed = seed + 7919 * rep + i
            pts = load_sweep(
                topology, routing_factory, pattern_factory, [load],
                warmup_ns=warmup_ns, measure_ns=measure_ns, seed=rep_seed,
                arrival=arrival, config=config,
            )
            thrs.append(pts[0].throughput)
            if pts[0].mean_latency_ns is not None:
                lats.append(pts[0].mean_latency_ns)

        def _mean(xs: List[float]) -> float:
            return sum(xs) / len(xs)

        def _std(xs: List[float]) -> float:
            if len(xs) < 2:
                return 0.0
            m = _mean(xs)
            return (sum((x - m) ** 2 for x in xs) / (len(xs) - 1)) ** 0.5

        out.append(
            ReplicatedPoint(
                load=load,
                mean_throughput=_mean(thrs),
                std_throughput=_std(thrs),
                mean_latency_ns=_mean(lats) if lats else None,
                std_latency_ns=_std(lats) if lats else None,
                replicas=replicas,
            )
        )
    return out


def saturation_point(points: Sequence[SweepPoint], tolerance: float = 0.05) -> float:
    """Saturation throughput estimated from a sweep.

    The highest offered load still accepted within *tolerance*; if even
    the lowest point saturated, the maximum measured throughput is
    returned instead (the sustained post-saturation rate).
    """
    accepted = [p.load for p in points if p.accepted(tolerance)]
    if accepted:
        return max(accepted)
    return max(p.throughput for p in points)


def run_exchange(
    topology: Topology,
    routing_factory: Callable[[Topology, int], RoutingAlgorithm],
    exchange,
    seed: int = 0,
    config: SimConfig = PAPER_CONFIG,
) -> Dict[str, float]:
    """Simulate one finite exchange to completion."""
    net = Network(topology, routing_factory(topology, seed), config)
    return net.run_exchange(exchange)


def run_workload(
    topology: Topology,
    routing_factory: Callable[[Topology, int], RoutingAlgorithm],
    workload,
    seed: int = 0,
    config: SimConfig = PAPER_CONFIG,
    max_events: Optional[int] = None,
) -> Dict[str, object]:
    """Drive one dependency-DAG workload to completion (closed loop).

    *workload* is a :class:`repro.workload.Workload`; like
    :func:`run_exchange` this is the single-run primitive shared by the
    serial path and the :mod:`repro.orchestrate` worker, keeping the
    two bit-identical for fixed seeds.
    """
    net = Network(topology, routing_factory(topology, seed), config)
    return net.run_workload(workload, max_events=max_events)
