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

from repro._lazy import lazy_exports

#: Every public name and the submodule that defines it, imported when
#: the name is first read (see :mod:`repro._lazy`).
_EXPORTS = {
    "Route": ".base",
    "RoutingAlgorithm": ".base",
    "CongestionContext": ".base",
    "NullCongestion": ".base",
    "NULL_CONGESTION": ".base",
    "ROUTE_MINIMAL": ".base",
    "ROUTE_INDIRECT": ".base",
    "MinimalPaths": ".paths",
    "all_shortest_paths_bfs": ".paths",
    "RouteCache": ".cache",
    "MinimalRouting": ".minimal",
    "ForwardingTables": ".tables",
    "IndirectRandomRouting": ".valiant",
    "compose_indirect": ".cache",
    "UGALRouting": ".ugal",
    "VCPolicy": ".vc",
    "HopIndexVC": ".vc",
    "PhaseVC": ".vc",
    "default_vc_policy": ".vc",
    "ChannelDependencyGraph": ".deadlock",
    "build_cdg_minimal": ".deadlock",
    "build_cdg_indirect": ".deadlock",
    "find_cycle": ".deadlock",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
