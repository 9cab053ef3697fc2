"""Precompiled per-(src, dst) route-candidate cache.

Routes between a fixed (src, dst) router pair are structurally static:
the router sequence, the VC labels and the output port used at every hop
never change during a simulation.  Only the *choice* among candidates is
dynamic (random selection, UGAL's congestion-scored choice).

:class:`RouteCache` compiles each candidate exactly once into an
immutable :class:`Route` carrying its hop-port tuple, so routing
algorithms *select among* cached candidates and the simulator's packet
construction needs a single eject-port lookup.  Three compiled forms
cover the paper's algorithms:

- :meth:`minimal_candidates` -- every minimal path of a pair, in
  :class:`~repro.routing.paths.MinimalPaths` order.  The kernel's C
  route table (``repro/sim/vec/_kernel.c``) must enumerate candidates
  in this same order, or seeded random selection would pick different
  candidates on the two engines;
- :meth:`compose` -- the indirect route through a given (first leg,
  second leg) pair of minimal legs, built on first use and memoised
  (the same leg combination recurs constantly under Valiant routing);
- :meth:`self_route` -- the degenerate intra-router route.

The cache is purely structural: it never reads congestion state, so
adaptive decisions remain live and per-packet.

Fault awareness (:mod:`repro.resilience`): the cache keeps a set of
currently failed links.  :meth:`fail_link` scans the filled rows and
nulls exactly the entries whose candidates cross the failed link (in
place, so routing algorithms' bound row lists stay valid); the normal
lazy fill then reconstitutes them against the degraded adjacency --
surviving pristine candidates where any exist, a BFS-recomputed path
otherwise.  The scan runs at fault time precisely because faults are
rare and fills are hot: fault-free fills pay nothing but an empty-set
check (gated at <= 5% by the perf benchmark's ``fault_overhead``
entry).  The pristine memos (``_minimal``, ``_composed``, ``_self``)
are never polluted with degraded results, so :meth:`restore_link` only
needs to re-null the rows touched while links were down.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.routing.base import ROUTE_INDIRECT, ROUTE_MINIMAL, Route
from repro.routing.paths import MinimalPaths, RouterPath
from repro.routing.vc import VCPolicy
from repro.topology.base import Topology

__all__ = ["NoRouteError", "RouteCache", "compose_indirect"]


class NoRouteError(RuntimeError):
    """No legal route exists between two routers on the current
    (degraded) adjacency -- either they are disconnected, or the only
    surviving paths exceed the provisioned VC budget."""


def compose_indirect(
    first_leg: Tuple[int, ...], second_leg: Tuple[int, ...]
) -> Tuple[Tuple[int, ...], int]:
    """Concatenate two minimal legs sharing the intermediate router.

    Returns ``(routers, intermediate_index)``; the duplicated
    intermediate is collapsed.
    """
    if first_leg[-1] != second_leg[0]:
        raise ValueError(
            f"compose_indirect: legs do not meet ({first_leg[-1]} != {second_leg[0]})"
        )
    routers = first_leg + second_leg[1:]
    return routers, len(first_leg) - 1


class RouteCache:
    """Compiles and memoises immutable route candidates for one
    (topology, VC policy) pair.

    One instance is shared by all routing algorithms of one network --
    :class:`~repro.routing.ugal.UGALRouting` passes its cache to its
    minimal and indirect sub-routers, so the minimal candidates scored
    by UGAL are the very objects :class:`~repro.routing.minimal.
    MinimalRouting` would return.
    """

    def __init__(self, topology: Topology, vc_policy: VCPolicy):
        self.topology = topology
        self.vc_policy = vc_policy
        self.paths = MinimalPaths(topology)
        self._minimal: Dict[Tuple[int, int], Tuple[Route, ...]] = {}
        self._composed: Dict[Tuple[RouterPath, RouterPath], Route] = {}
        self._self: Dict[int, Route] = {}
        # Row tables: plain-list indexing is markedly cheaper than
        # hashing a (src, dst) tuple per lookup, which matters in UGAL's
        # per-candidate scoring loop.  Entries are filled strictly on
        # first use -- never eagerly -- because compiling a pair the
        # simulation never routes can legitimately fail (e.g. a 3-hop
        # minimal path on a degraded topology exceeds the VC budget).
        n = topology.num_routers
        self.leg_rows: List[Optional[List[Optional[Tuple[RouterPath, ...]]]]] = [None] * n
        self.minimal_rows: List[Optional[List[Optional[Tuple[Route, ...]]]]] = [None] * n
        # Fault state (see module docstring).  _touched records the
        # ("min" | "leg", src, dst) rows filled or nulled while links
        # were down, for restore-time re-nulling.
        self._failed: Set[Tuple[int, int]] = set()
        self._touched: Set[Tuple[str, int, int]] = set()
        # VCs the simulator actually provisioned; set when faults are
        # armed so degraded-path fallbacks never emit labels the switch
        # cannot buffer.  None (analysis use) = policy budget only.
        self.runtime_vcs: Optional[int] = None

    # -- compilation ---------------------------------------------------------

    def hop_ports(self, routers: Tuple[int, ...]) -> Tuple[int, ...]:
        """Output-port index per router-to-router hop of *routers*."""
        port = self.topology.port
        return tuple(port(routers[i], routers[i + 1]) for i in range(len(routers) - 1))

    def minimal_candidates(self, src: int, dst: int) -> Tuple[Route, ...]:
        """All minimal routes ``src -> dst``, compiled; cached per pair.

        Candidate order matches :meth:`MinimalPaths.paths`, which makes
        seeded random selection over the compiled tuple draw-for-draw
        identical with selection over the raw path tuple.
        """
        key = (src, dst)
        cached = self._minimal.get(key)
        if cached is None:
            assign = self.vc_policy.assign
            cached = tuple(
                Route(
                    routers=p,
                    vcs=assign(p, None),
                    kind=ROUTE_MINIMAL,
                    intermediate=None,
                    ports=self.hop_ports(p),
                )
                for p in self.paths.paths(src, dst)
            )
            self._minimal[key] = cached
        return cached

    def compose(self, first_leg: RouterPath, second_leg: RouterPath) -> Route:
        """The compiled indirect route through ``first_leg + second_leg``.

        Memoised per leg pair; the memo grows with the number of leg
        combinations actually used.
        """
        key = (first_leg, second_leg)
        cached = self._composed.get(key)
        if cached is None:
            routers, inter_idx = compose_indirect(first_leg, second_leg)
            try:
                vcs = self.vc_policy.assign(routers, inter_idx)
            except ValueError as exc:
                # Degraded legs can exceed the indirect VC budget; the
                # caller decides whether to fall back (UGAL routes
                # minimally instead) or propagate.
                raise NoRouteError(
                    f"indirect route {routers} is not VC-legal on the "
                    f"degraded adjacency: {exc}") from exc
            cached = Route(
                routers=routers,
                vcs=vcs,
                kind=ROUTE_INDIRECT,
                intermediate=inter_idx,
                ports=self.hop_ports(routers),
            )
            self._composed[key] = cached
        return cached

    def ensure_leg_row(self, a: int) -> List[Optional[Tuple[RouterPath, ...]]]:
        """The (possibly empty) leg row for source *a*, creating it."""
        row = self.leg_rows[a]
        if row is None:
            row = self.leg_rows[a] = [None] * self.topology.num_routers
        return row

    def leg_fill(self, a: int, b: int) -> Tuple[RouterPath, ...]:
        """Slow path: enumerate, memoise and return the ``a -> b`` legs."""
        row = self.ensure_leg_row(a)
        cands = self.paths.paths(a, b)
        if self._failed:
            live = tuple(p for p in cands if not self._crosses_failed(p))
            cands = live if live else (self._degraded_path(a, b),)
            self._touched.add(("leg", a, b))
        row[b] = cands
        return cands

    def ensure_minimal_row(self, src: int) -> List[Optional[Tuple[Route, ...]]]:
        """The (possibly empty) minimal row for source *src*, creating it."""
        row = self.minimal_rows[src]
        if row is None:
            row = self.minimal_rows[src] = [None] * self.topology.num_routers
        return row

    def minimal_fill(self, src: int, dst: int) -> Tuple[Route, ...]:
        """Slow path: compile, memoise and return ``src -> dst`` candidates.

        With failed links present, only candidates whose every hop is
        live survive; when none do, a single route recomputed on the
        degraded adjacency stands in (raising :class:`NoRouteError` on
        disconnection or VC-budget overflow).  The returned tuple is
        never empty.
        """
        row = self.ensure_minimal_row(src)
        cands = self.minimal_candidates(src, dst)
        if self._failed:
            live = tuple(r for r in cands if not self._crosses_failed(r.routers))
            cands = live if live else (self._degraded_route(src, dst),)
            self._touched.add(("min", src, dst))
        row[dst] = cands
        return cands

    def self_route(self, router: int) -> Route:
        """The degenerate single-router route (intra-router traffic)."""
        cached = self._self.get(router)
        if cached is None:
            cached = Route(routers=(router,), vcs=(), kind=ROUTE_MINIMAL, ports=())
            self._self[router] = cached
        return cached

    # -- fault handling ------------------------------------------------------

    def _crosses_failed(self, routers: Tuple[int, ...]) -> bool:
        failed = self._failed
        for i in range(len(routers) - 1):
            a, b = routers[i], routers[i + 1]
            if ((a, b) if a < b else (b, a)) in failed:
                return True
        return False

    @staticmethod
    def _uses_link(routers: Tuple[int, ...], e: Tuple[int, int]) -> bool:
        for i in range(len(routers) - 1):
            a, b = routers[i], routers[i + 1]
            if ((a, b) if a < b else (b, a)) == e:
                return True
        return False

    def fail_link(self, u: int, v: int) -> None:
        """Mark link ``u-v`` failed and invalidate (in place) exactly
        the row entries whose candidates cross it; they refill lazily
        against the degraded adjacency on next use.

        The filled rows are scanned here, at fault time, rather than
        reverse-indexed at fill time: faults are rare events while row
        fills are the routing hot path, so all bookkeeping lives on
        this side."""
        e = (u, v) if u < v else (v, u)
        if e in self._failed:
            return
        self._failed.add(e)
        uses = self._uses_link
        touched = self._touched
        for row_src, row in enumerate(self.minimal_rows):
            if row is None:
                continue
            for dst, cands in enumerate(row):
                if cands is not None and any(uses(r.routers, e) for r in cands):
                    row[dst] = None
                    touched.add(("min", row_src, dst))
        for row_src, row in enumerate(self.leg_rows):
            if row is None:
                continue
            for dst, legs in enumerate(row):
                if legs is not None and any(uses(p, e) for p in legs):
                    row[dst] = None
                    touched.add(("leg", row_src, dst))

    def restore_link(self, u: int, v: int) -> None:
        """Mark link ``u-v`` live again.  Every row entry filled or
        nulled while links were down is re-nulled (over-invalidation:
        entries that never used the link refill to the same content)."""
        e = (u, v) if u < v else (v, u)
        if e not in self._failed:
            return
        self._failed.discard(e)
        for kind, a, b in self._touched:
            rows = self.minimal_rows if kind == "min" else self.leg_rows
            row = rows[a]
            if row is not None:
                row[b] = None
        self._touched.clear()

    def _degraded_path(self, src: int, dst: int) -> Tuple[int, ...]:
        """Deterministic BFS shortest path over the live adjacency
        (neighbors in sorted order), or :class:`NoRouteError`."""
        if src == dst:
            return (src,)
        failed = self._failed
        neighbors = self.topology.neighbors
        parent = {src: -1}
        frontier = [src]
        while frontier and dst not in parent:
            nxt = []
            for u in frontier:
                for v in neighbors(u):
                    if v in parent:
                        continue
                    if ((u, v) if u < v else (v, u)) in failed:
                        continue
                    parent[v] = u
                    nxt.append(v)
            frontier = nxt
        if dst not in parent:
            raise NoRouteError(
                f"routers {src} and {dst} are disconnected by the current "
                f"link failures ({len(failed)} links down)")
        path = [dst]
        while path[-1] != src:
            path.append(parent[path[-1]])
        path.reverse()
        return tuple(path)

    def _degraded_route(self, src: int, dst: int) -> Route:
        """Compile the BFS fallback route for a pair with no surviving
        pristine candidate.  Paths longer than the minimal VC budget are
        labeled hop-indexed and tagged indirect (the checker validates
        against the indirect budget); beyond the provisioned VC count
        there is no legal label and :class:`NoRouteError` is raised."""
        path = self._degraded_path(src, dst)
        hops = len(path) - 1
        try:
            vcs = self.vc_policy.assign(path, None)
            kind = ROUTE_MINIMAL
        except ValueError:
            limit = self.vc_policy.num_vcs_indirect
            if self.runtime_vcs is not None:
                limit = min(limit, self.runtime_vcs)
            if hops > limit:
                raise NoRouteError(
                    f"degraded path {src}->{dst} needs {hops} hops but only "
                    f"{limit} VCs are available; provision headroom with "
                    "repro.analysis.faults.safe_vc_policy") from None
            vcs = tuple(range(hops))
            kind = ROUTE_INDIRECT
        return Route(routers=path, vcs=vcs, kind=kind, intermediate=None,
                     ports=self.hop_ports(path))

    # -- introspection -------------------------------------------------------

    def stats(self) -> Dict[str, int]:
        """Cache-size counters (pairs compiled, composed routes, selfs)."""
        return {
            "minimal_pairs": len(self._minimal),
            "minimal_routes": sum(len(v) for v in self._minimal.values()),
            "composed_routes": len(self._composed),
            "self_routes": len(self._self),
        }
