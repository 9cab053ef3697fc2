"""Flit/packet-level event-driven network simulator (paper Sec. 4.1).

The open substitute for the proprietary simulator used by the paper:
virtual-channel input-buffered switches, credit-based flow control,
round-robin arbitration, serializing links and NICs.  See DESIGN.md §4
for the packet-granularity substitution argument.

Typical use::

    from repro.sim import Network, SimConfig
    from repro.topology import SlimFly
    from repro.routing import MinimalRouting
    from repro.traffic import UniformRandom

    topo = SlimFly(5)
    net = Network(topo, MinimalRouting(topo))
    stats = net.run_synthetic(UniformRandom(topo.num_nodes), load=0.5)
    print(stats.throughput, stats.mean_latency_ns)
"""

from repro._lazy import lazy_exports

#: Every public name and the submodule that defines it, imported when
#: the name is first read (see :mod:`repro._lazy`).
_EXPORTS = {
    "SimConfig": ".config",
    "PAPER_CONFIG": ".config",
    "Engine": ".engine",
    "Network": ".network",
    "Packet": ".packet",
    "StatsCollector": ".stats",
    "WindowStats": ".stats",
    "InvariantChecker": ".invariants",
    "InvariantViolation": ".invariants",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
