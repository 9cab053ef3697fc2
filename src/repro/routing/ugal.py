"""UGAL-L adaptive routing (paper Sec. 3.3).

The local variant of the Universal Globally-Adaptive Load-balanced
algorithm selects, per packet at injection time, between the minimal
route and one of ``nI`` randomly chosen indirect routes, based on the
occupancy of each candidate's *first output port* at the source router:

- minimal cost:  ``C_M = q_M``
- indirect cost: ``C_I^j = c * q_I^j``

where the penalty ``c`` is

- a constant (MLFM-A / OFT-A), or
- ``(L_I^j / L_M) * c_SF`` for the Slim Fly (SF-A), following the
  original UGAL cost that scales with the path-length ratio.

The *threshold* variants (SF-ATh, MLFM-ATh, OFT-ATh) route minimally
whenever ``q_M < T`` (``T`` a fraction of the buffer size) and only run
the adaptive choice above the threshold -- the paper's fix for the
generic algorithm's latency creep at high uniform loads.

Ties are broken in favour of the minimal route, so an idle network
routes minimally.

The hot path is an allocation-free scoring loop over precompiled
candidates (:mod:`repro.routing.cache`): each indirect candidate is
scored from its two minimal *legs* (random draws and congestion
lookups stay live, per-packet) and only the winner is materialised --
as a memoised compiled route.  The kernel's C replica
(``route_ugal`` in ``repro/sim/vec/_kernel.c``) makes the same choices
bit for bit: same RNG draw order, same float arithmetic.
"""

from __future__ import annotations

import random
from typing import Optional, Sequence

from repro.routing.base import (
    NULL_CONGESTION,
    CongestionContext,
    Route,
    RoutingAlgorithm,
)
from repro.routing.cache import NoRouteError, RouteCache
from repro.routing.minimal import MinimalRouting
from repro.routing.valiant import IndirectRandomRouting
from repro.routing.vc import VCPolicy, default_vc_policy
from repro.topology.base import Topology

__all__ = ["UGALRouting"]


class UGALRouting(RoutingAlgorithm):
    """UGAL-L with constant or Slim-Fly (length-ratio) penalty and
    optional minimal-routing threshold.

    Parameters
    ----------
    topology:
        The network.
    num_indirect:
        ``nI``, the number of indirect candidates evaluated per packet.
    c:
        Constant penalty (MLFM-A / OFT-A) -- ignored in ``"sf"`` mode.
    cost_mode:
        ``"const"`` for ``C_I = c * q_I``; ``"sf"`` for
        ``C_I = (L_I / L_M) * c_SF * q_I``.
    c_sf:
        The Slim Fly constant ``c_SF`` (``"sf"`` mode only).
    threshold:
        If set (fraction of the buffer capacity, e.g. ``0.10`` for the
        paper's ``T = 10%``), packets route minimally while
        ``q_M < threshold * capacity`` (the "-ATh" variants).
    signal:
        ``"local"`` (default, the paper's UGAL-L: first output port at
        the source router) or ``"global"`` (the UGAL-G oracle the paper
        deems impractical to implement: the *maximum* queue along the
        entire candidate path) -- kept for the local-vs-global ablation.
    minimal_selection:
        Passed through to :class:`MinimalRouting`.
    seed:
        RNG seed.
    intermediates:
        Passed through to :class:`IndirectRandomRouting`, which
        validates it.
    """

    def __init__(
        self,
        topology: Topology,
        num_indirect: int = 4,
        c: float = 2.0,
        cost_mode: str = "const",
        c_sf: float = 1.0,
        threshold: Optional[float] = None,
        vc_policy: Optional[VCPolicy] = None,
        minimal_selection: str = "random",
        seed: int = 0,
        intermediates: Optional[Sequence[int]] = None,
        signal: str = "local",
    ):
        if cost_mode not in ("const", "sf"):
            raise ValueError(f"UGALRouting: unknown cost_mode {cost_mode!r}")
        if signal not in ("local", "global"):
            raise ValueError(f"UGALRouting: unknown signal {signal!r}")
        if num_indirect < 1:
            raise ValueError(f"UGALRouting: nI={num_indirect} must be >= 1")
        if threshold is not None and not (0.0 <= threshold <= 1.0):
            raise ValueError(f"UGALRouting: threshold {threshold} must be in [0, 1]")
        self.topology = topology
        self.vc_policy = vc_policy if vc_policy is not None else default_vc_policy(topology)
        self.num_indirect = num_indirect
        self.c = float(c)
        self.cost_mode = cost_mode
        self.c_sf = float(c_sf)
        self.threshold = threshold
        self.signal = signal
        self._rng = random.Random(seed)
        # One shared compilation cache: the minimal candidates UGAL
        # scores are the very objects the minimal sub-router returns.
        self.cache = RouteCache(topology, self.vc_policy)
        self._minimal = MinimalRouting(
            topology,
            vc_policy=self.vc_policy,
            selection=minimal_selection,
            seed=seed + 1,
            cache=self.cache,
        )
        self._indirect = IndirectRandomRouting(
            topology,
            vc_policy=self.vc_policy,
            seed=seed + 2,
            intermediates=intermediates,
            cache=self.cache,
        )
        # Hot-path bindings (stable for the lifetime of the object).
        # The row-table lists are shared with the cache and mutated in
        # place as rows are built, so binding them here stays coherent.
        self._compose = self.cache.compose
        self._minimal_random = minimal_selection == "random"
        self._minimal_randbelow = self._minimal._rng._randbelow
        self._indirect_randbelow = self._indirect._rng._randbelow
        self._pool = self._indirect._pool
        self._min_rows = self.cache.minimal_rows
        self._leg_rows = self.cache.leg_rows
        self._min_fill = self.cache.minimal_fill
        self._leg_fill = self.cache.leg_fill
        self._ensure_leg_row = self.cache.ensure_leg_row
        self._local = signal == "local"
        self._sf_mode = cost_mode == "sf"
        suffix = "ATh" if threshold is not None else "A"
        if signal == "global":
            suffix = "G" + suffix[1:] if suffix != "A" else "G"
        self.name = f"UGAL-{suffix}"

    @property
    def num_vcs(self) -> int:
        return self.vc_policy.num_vcs(uses_indirect=True)

    def route(
        self,
        src_router: int,
        dst_router: int,
        congestion: CongestionContext = NULL_CONGESTION,
    ) -> Route:
        # Inlined minimal selection (same RNG object and draw order as
        # MinimalRouting.route over the same candidate tuple).
        row = self._min_rows[src_router]
        candidates = row[dst_router] if row is not None else None
        if candidates is None:
            candidates = self._min_fill(src_router, dst_router)
        if len(candidates) == 1:
            minimal = candidates[0]
        elif self._minimal_random:
            minimal = candidates[self._minimal_randbelow(len(candidates))]
        else:
            minimal = self._minimal.route(src_router, dst_router, congestion)
        routers = minimal.routers
        len_min = len(routers) - 1
        if len_min == 0:
            return minimal
        queue_len = congestion.queue_len
        local = self._local
        if local:
            q_min = queue_len(routers[0], routers[1])
        else:
            q_min = max(
                queue_len(routers[i], routers[i + 1]) for i in range(len_min)
            )

        threshold = self.threshold
        if threshold is not None and q_min < threshold * congestion.queue_capacity():
            return minimal

        # Allocation-free scoring: each indirect candidate is drawn as a
        # (first leg, second leg) pair and scored straight off the leg
        # tuples; only the winning candidate is materialised (memoised).
        # Intermediate and leg draws are inlined from
        # IndirectRandomRouting.pick_intermediate / _pick_leg -- same RNG
        # object, same draw order, minus the call overhead.
        best_cost = float(q_min)
        best_first = None
        best_second = None
        randbelow = self._indirect_randbelow
        pool = self._pool
        npool = len(pool)
        leg_rows = self._leg_rows
        leg_fill = self._leg_fill
        src_legs = leg_rows[src_router]
        if src_legs is None:
            src_legs = self._ensure_leg_row(src_router)
        sf_mode = self._sf_mode
        c = self.c
        c_sf = self.c_sf
        for _ in range(self.num_indirect):
            while True:
                inter = pool[randbelow(npool)]
                if inter != src_router and inter != dst_router:
                    break
            cands = src_legs[inter]
            if cands is None:
                cands = leg_fill(src_router, inter)
            first = cands[0] if len(cands) == 1 else cands[randbelow(len(cands))]
            inter_legs = leg_rows[inter]
            cands = inter_legs[dst_router] if inter_legs is not None else None
            if cands is None:
                cands = leg_fill(inter, dst_router)
            second = cands[0] if len(cands) == 1 else cands[randbelow(len(cands))]
            if local:
                q_ind = queue_len(first[0], first[1])
            else:
                q_ind = max(
                    max(queue_len(first[i], first[i + 1]) for i in range(len(first) - 1)),
                    max(queue_len(second[i], second[i + 1]) for i in range(len(second) - 1)),
                )
            if sf_mode:
                # Keep this association: route_ugal in _kernel.c
                # multiplies in the same order, and the goldens pin the
                # float results bit for bit.
                hops = len(first) + len(second) - 2
                cost = ((hops / len_min) * c_sf) * q_ind
            else:
                cost = c * q_ind
            # Strict inequality: ties go to the (shorter) minimal route.
            if cost < best_cost:
                best_cost = cost
                best_first = first
                best_second = second
        if best_first is None:
            return minimal
        try:
            return self._compose(best_first, best_second)
        except NoRouteError:
            # Only reachable on a degraded adjacency: recomputed legs
            # can compose into a route past the indirect VC budget.
            # Route minimally instead of failing the injection.
            return minimal

    def describe(self) -> str:
        """Short parameter string for reports (e.g. ``"UGAL-A(nI=4,c=2)"``)."""
        if self.cost_mode == "sf":
            inner = f"nI={self.num_indirect},cSF={self.c_sf:g}"
        else:
            inner = f"nI={self.num_indirect},c={self.c:g}"
        if self.threshold is not None:
            inner += f",T={self.threshold:.0%}"
        return f"{self.name}({inner})"
