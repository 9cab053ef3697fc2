"""Oblivious minimal routing (paper Sec. 3.1).

For the diameter-two topologies every minimal route between distinct
endpoint routers is the direct edge (Slim Fly only) or a two-hop route
through a common neighbor.  When several minimal paths exist (rare:
same-column MLFM pairs, symmetric OFT pairs, a few SF pairs) the paper's
footnote offers two selections -- uniformly at random, or the one whose
first output buffer is least occupied; both are implemented.

Routes are precompiled per (src, dst) pair (see
:mod:`repro.routing.cache`): the hot path *selects among* immutable
cached candidates instead of materialising a fresh
:class:`~repro.routing.base.Route` per packet.
"""

from __future__ import annotations

import random
from typing import Optional

from repro.routing.base import (
    NULL_CONGESTION,
    CongestionContext,
    Route,
    RoutingAlgorithm,
)
from repro.routing.cache import RouteCache
from repro.routing.vc import VCPolicy, default_vc_policy
from repro.topology.base import Topology

__all__ = ["MinimalRouting"]


class MinimalRouting(RoutingAlgorithm):
    """Oblivious minimal routing.

    Parameters
    ----------
    topology:
        The network.
    vc_policy:
        Defaults to the paper's scheme for the topology
        (:func:`repro.routing.vc.default_vc_policy`).
    selection:
        ``"random"`` (default) picks uniformly among minimal paths;
        ``"best"`` picks the one with the least-occupied first output
        buffer (paper footnote 1).
    seed:
        RNG seed for reproducible random selections.
    cache:
        Optional shared :class:`~repro.routing.cache.RouteCache`
        (:class:`~repro.routing.ugal.UGALRouting` passes its own so all
        sub-routers compile each pair once).
    """

    name = "MIN"

    def __init__(
        self,
        topology: Topology,
        vc_policy: Optional[VCPolicy] = None,
        selection: str = "random",
        seed: int = 0,
        cache: Optional[RouteCache] = None,
    ):
        if selection not in ("random", "best"):
            raise ValueError(f"MinimalRouting: unknown selection {selection!r}")
        self.topology = topology
        self.vc_policy = vc_policy if vc_policy is not None else default_vc_policy(topology)
        self.selection = selection
        self.cache = cache if cache is not None else RouteCache(topology, self.vc_policy)
        self.paths = self.cache.paths
        self._rng = random.Random(seed)
        # randrange(n) for positive n is exactly _randbelow(n); binding it
        # skips the wrapper while consuming the identical random stream.
        self._randbelow = self._rng._randbelow
        # Shared with the cache and filled in place as rows are built.
        self._min_rows = self.cache.minimal_rows

    @property
    def num_vcs(self) -> int:
        return self.vc_policy.num_vcs(uses_indirect=False)

    def route(
        self,
        src_router: int,
        dst_router: int,
        congestion: CongestionContext = NULL_CONGESTION,
    ) -> Route:
        row = self._min_rows[src_router]
        candidates = row[dst_router] if row is not None else None
        if candidates is None:
            candidates = self.cache.minimal_fill(src_router, dst_router)
        if len(candidates) == 1:
            return candidates[0]
        if self.selection == "random":
            return candidates[self._randbelow(len(candidates))]
        queue_len = congestion.queue_len
        best = None
        best_q = None
        for route in candidates:
            routers = route.routers
            q = queue_len(routers[0], routers[1]) if len(routers) > 1 else 0
            if best_q is None or q < best_q:
                best = route
                best_q = q
        return best  # type: ignore[return-value]  # candidates is non-empty
