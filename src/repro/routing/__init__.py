"""Routing algorithms and deadlock-avoidance machinery (paper Sec. 3).

- :class:`repro.routing.MinimalRouting` -- oblivious minimal (Sec. 3.1),
- :class:`repro.routing.IndirectRandomRouting` -- Valiant indirect random
  with topology-restricted intermediates (Sec. 3.2),
- :class:`repro.routing.UGALRouting` -- UGAL-L adaptive, generic and
  threshold variants, constant or length-ratio penalty (Sec. 3.3),
- :mod:`repro.routing.vc` -- VC assignment schemes (Sec. 3.4),
- :mod:`repro.routing.cache` -- precompiled per-(src, dst) route
  candidates shared by all algorithms (hot-path optimisation),
- :mod:`repro.routing.deadlock` -- channel-dependency-graph construction
  and cycle detection, used to prove deadlock freedom per instance.
"""

from repro.routing.base import (
    NULL_CONGESTION,
    ROUTE_INDIRECT,
    ROUTE_MINIMAL,
    CongestionContext,
    NullCongestion,
    Route,
    RoutingAlgorithm,
)
from repro.routing.deadlock import (
    ChannelDependencyGraph,
    build_cdg_indirect,
    build_cdg_minimal,
    find_cycle,
)
from repro.routing.cache import RouteCache, compose_indirect
from repro.routing.minimal import MinimalRouting
from repro.routing.tables import ForwardingTables
from repro.routing.paths import MinimalPaths, all_shortest_paths_bfs
from repro.routing.ugal import UGALRouting
from repro.routing.valiant import IndirectRandomRouting
from repro.routing.vc import HopIndexVC, PhaseVC, VCPolicy, default_vc_policy

__all__ = [
    "Route",
    "RoutingAlgorithm",
    "CongestionContext",
    "NullCongestion",
    "NULL_CONGESTION",
    "ROUTE_MINIMAL",
    "ROUTE_INDIRECT",
    "MinimalPaths",
    "all_shortest_paths_bfs",
    "RouteCache",
    "MinimalRouting",
    "ForwardingTables",
    "IndirectRandomRouting",
    "compose_indirect",
    "UGALRouting",
    "VCPolicy",
    "HopIndexVC",
    "PhaseVC",
    "default_vc_policy",
    "ChannelDependencyGraph",
    "build_cdg_minimal",
    "build_cdg_indirect",
    "find_cycle",
]
