"""Oblivious indirect random (Valiant) routing (paper Sec. 3.2).

A packet is first minimally routed to a uniformly random intermediate
router ``Ri`` (``Ri`` different from source and destination), then
minimally routed to its destination.

Intermediate eligibility follows the paper: for the Slim Fly *any*
router qualifies (indirect paths of 2--4 hops); for the SSPTs only
routers directly connected to end-nodes qualify (L0/L2 for the OFT,
local routers for the MLFM), which pins indirect paths to exactly
4 hops -- long enough to load-balance, short enough for latency.

The random draws (intermediate, then one leg choice per multi-path leg)
stay live and per-packet; the composed route for a given leg pair is
compiled once and memoised (see :mod:`repro.routing.cache`).
"""

from __future__ import annotations

import random
from typing import Optional, Sequence, Tuple

from repro.routing.base import (
    NULL_CONGESTION,
    CongestionContext,
    Route,
    RoutingAlgorithm,
)
from repro.routing.cache import RouteCache
from repro.routing.vc import VCPolicy, default_vc_policy
from repro.topology.base import Topology

__all__ = ["IndirectRandomRouting"]


class IndirectRandomRouting(RoutingAlgorithm):
    """Valiant's algorithm with topology-restricted intermediates.

    Parameters
    ----------
    topology:
        The network; ``topology.valiant_intermediates()`` defines the
        eligible intermediates.
    vc_policy:
        Defaults to the paper's scheme for the topology.
    seed:
        RNG seed for reproducible intermediate selection.
    intermediates:
        Optional explicit override of the candidate intermediate set:
        router ids in ``[0, num_routers)``, at least 3 of them distinct
        (so an eligible intermediate exists for every src, dst pair).
    cache:
        Optional shared :class:`~repro.routing.cache.RouteCache`.
    """

    name = "INR"

    def __init__(
        self,
        topology: Topology,
        vc_policy: Optional[VCPolicy] = None,
        seed: int = 0,
        intermediates: Optional[Sequence[int]] = None,
        cache: Optional[RouteCache] = None,
    ):
        self.topology = topology
        self.vc_policy = vc_policy if vc_policy is not None else default_vc_policy(topology)
        self.cache = cache if cache is not None else RouteCache(topology, self.vc_policy)
        self.paths = self.cache.paths
        self._rng = random.Random(seed)
        # randrange(n) for positive n is exactly _randbelow(n); binding it
        # skips the argument-normalisation wrapper on every draw while
        # consuming the identical random stream.
        self._randbelow = self._rng._randbelow
        # Shared with the cache and filled in place as rows are built.
        self._leg_rows = self.cache.leg_rows
        pool = list(intermediates) if intermediates is not None else topology.valiant_intermediates()
        # Both engines draw from the pool until they hit a router other
        # than src and dst: with fewer than 3 distinct ids that loop
        # never ends for some pairs, and an id outside the topology
        # indexes past the route tables.
        bad = [r for r in pool if not 0 <= r < topology.num_routers]
        if bad:
            raise ValueError(
                f"{topology.name}: intermediates {bad} are not router ids "
                f"in [0, {topology.num_routers})"
            )
        distinct = len(set(pool))
        if distinct < 3:
            raise ValueError(
                f"{topology.name}: need at least 3 distinct candidate "
                f"intermediates, have {distinct}"
            )
        self._pool = pool

    @property
    def num_vcs(self) -> int:
        return self.vc_policy.num_vcs(uses_indirect=True)

    def pick_intermediate(self, src_router: int, dst_router: int) -> int:
        """Uniformly random eligible intermediate, excluding src and dst."""
        pool = self._pool
        n = len(pool)
        randbelow = self._randbelow
        while True:
            candidate = pool[randbelow(n)]
            if candidate != src_router and candidate != dst_router:
                return candidate

    def route_via(
        self,
        src_router: int,
        intermediate: int,
        dst_router: int,
    ) -> Route:
        """Build the indirect route through a *given* intermediate."""
        first = self._pick_leg(src_router, intermediate)
        second = self._pick_leg(intermediate, dst_router)
        return self.cache.compose(first, second)

    def route(
        self,
        src_router: int,
        dst_router: int,
        congestion: CongestionContext = NULL_CONGESTION,
    ) -> Route:
        if src_router == dst_router:
            # Intra-router traffic never enters the fabric (the paper's
            # X exchanges "stay within the first router" even under INR).
            return self.cache.self_route(src_router)
        intermediate = self.pick_intermediate(src_router, dst_router)
        return self.route_via(src_router, intermediate, dst_router)

    def _pick_leg(self, a: int, b: int) -> Tuple[int, ...]:
        row = self._leg_rows[a]
        candidates = row[b] if row is not None else None
        if candidates is None:
            candidates = self.cache.leg_fill(a, b)
        if len(candidates) == 1:
            return candidates[0]
        return candidates[self._randbelow(len(candidates))]
