"""Simulation parameters (paper Sec. 4.1).

Defaults reproduce the paper's framework configuration exactly:
virtual-channel capable input-output-buffered switches with 100 KB of
buffer space per port per direction, 100 ns switch traversal latency,
100 Gbps links with 50 ns latency, credit-based flow control and
256-byte packets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

__all__ = ["SimConfig", "PAPER_CONFIG"]


@dataclass(frozen=True)
class SimConfig:
    """Physical parameters of the simulated network.

    All times are in nanoseconds; bandwidth in Gbit/s.
    """

    link_bandwidth_gbps: float = 100.0
    link_latency_ns: float = 50.0
    switch_latency_ns: float = 100.0
    buffer_bytes_per_port: int = 100_000
    packet_bytes: int = 256
    #: Enable the runtime invariant checker (repro.sim.invariants): the
    #: network is built with checked routers/NICs that verify packet
    #: conservation, credit loops, VC legality, latency floors and
    #: progress on every transition.  Off by default -- checking costs
    #: roughly 2x simulation time and does not change the physics.
    check: bool = False
    #: Simulator backend.  ``"object"`` is the reference implementation
    #: (one Python object per router/NIC/port, one callback per event);
    #: ``"kernel"`` runs the same physics in a compiled C kernel that
    #: owns the event queue and all simulation state
    #: (repro.sim.vec.kernel), falling back to ``"object"`` with one
    #: RuntimeWarning when no compiler/ABI is available.  Both engines
    #: are bit-identical -- the golden conformance suite
    #: (tests/golden/conformance.json) is the gate -- so the choice is
    #: purely a speed/memory trade-off.
    backend: str = "object"
    #: Fault schedule specs (repro.resilience.schedule grammar, e.g.
    #: ``("fail@600:0-5", "recover@900:0-5")``).  Non-empty schedules
    #: attach a FaultManager to the network; the empty default costs
    #: the simulation nothing.
    faults: Tuple[str, ...] = field(default=())
    #: What happens to a packet queued toward a link that just died:
    #: ``"reroute"`` re-routes it at its current router (minimal on the
    #: degraded adjacency), ``"drop"`` counts it as lost.
    fault_policy: str = "reroute"

    def __post_init__(self) -> None:
        if self.backend not in ("object", "kernel"):
            raise ValueError(
                f"unknown backend {self.backend!r} "
                f"(expected 'object' or 'kernel')"
            )
        if not isinstance(self.faults, tuple):
            # Frozen dataclass: normalize list inputs (JSON round-trips
            # through orchestrate/serve produce lists) in place.
            object.__setattr__(self, "faults", tuple(self.faults))
        if self.fault_policy not in ("reroute", "drop"):
            raise ValueError(
                f"unknown fault_policy {self.fault_policy!r} "
                "(expected 'reroute' or 'drop')"
            )
        if self.faults:
            # Syntax-check the specs now so malformed schedules fail at
            # config construction, not mid-simulation.  Lazy import:
            # repro.resilience.schedule imports nothing from repro.sim.
            from repro.resilience.schedule import FaultSchedule

            FaultSchedule(self.faults)
        if self.link_bandwidth_gbps <= 0:
            raise ValueError("link_bandwidth_gbps must be positive")
        if self.packet_bytes <= 0:
            raise ValueError("packet_bytes must be positive")
        if self.buffer_bytes_per_port < self.packet_bytes:
            raise ValueError("buffer must hold at least one packet")
        if self.link_latency_ns < 0 or self.switch_latency_ns < 0:
            raise ValueError("latencies must be non-negative")

    @property
    def packet_time_ns(self) -> float:
        """Serialization time of one packet on a link."""
        return self.packet_bytes * 8.0 / self.link_bandwidth_gbps

    @property
    def buffer_packets_per_port(self) -> int:
        """Input-buffer capacity of one port, in packets."""
        return self.buffer_bytes_per_port // self.packet_bytes

    def buffer_packets_per_vc(self, num_vcs: int) -> int:
        """Per-VC share of the port buffer (at least one packet)."""
        if num_vcs < 1:
            raise ValueError(f"num_vcs={num_vcs} must be >= 1")
        return max(1, self.buffer_packets_per_port // num_vcs)

    def zero_load_latency_ns(self, num_router_hops: int) -> float:
        """Latency of an uncontended packet traversing *num_router_hops*
        router-to-router links (plus injection and ejection legs).

        Injection: serialization + link.  Each router traversal adds
        switch latency, serialization and a link (the final one being
        the ejection link).
        """
        ser = self.packet_time_ns
        link = self.link_latency_ns
        inject = ser + link
        per_router = self.switch_latency_ns + ser + link
        return inject + (num_router_hops + 1) * per_router


#: The paper's exact configuration.
PAPER_CONFIG = SimConfig()
