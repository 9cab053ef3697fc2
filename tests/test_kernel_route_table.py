"""The kernel's route table against the RouteCache it replaces.

The compiled kernel enumerates, filters and composes routes in C from
the wiring's directed-channel table instead of calling into
:class:`~repro.routing.cache.RouteCache`.  Its route selection is only
bit-identical with the Python routing if every pair's candidate list
matches the cache's -- same routers, hop ports, VC labels and kind, in
the same order (which fixes the ``randbelow`` draw sequence) -- and if
it hands back to the cache exactly the pairs it cannot serve.  These
tests read the table through ``Kernel.route_candidates`` /
``Kernel.route_compose`` and compare it pair by pair, pristine and with
failed links, where a pair with no live listed path gets the cache's
BFS detour from the kernel's own BFS tree.
"""

from __future__ import annotations

import networkx as nx
import pytest

from repro.experiments.configs import configs_for_scale
from repro.routing import IndirectRandomRouting, MinimalRouting, UGALRouting
from repro.routing.cache import NoRouteError
from repro.routing.vc import HopIndexVC, PhaseVC
from repro.sim import Network, SimConfig
from repro.sim.vec.kernel import load_kernel
from repro.topology import Dragonfly, SlimFly
from repro.traffic import UniformRandom

pytestmark = pytest.mark.skipif(
    load_kernel() is None,
    reason="compiled kernel unavailable (no compiler or REPRO_NO_KERNEL set)",
)

TOPOLOGIES = {c.key: c.topology for c in configs_for_scale("tiny")}
TOPOLOGIES["sf:q=7"] = lambda: SlimFly(7)

POLICIES = {"hop": HopIndexVC, "phase": PhaseVC}


def as_tuple(route):
    return (route.routers, route.ports, route.vcs, route.kind)


def kernel_net(topo, policy):
    routing = MinimalRouting(topo, vc_policy=policy)
    net = Network(topo, routing, SimConfig(backend="kernel"))
    assert net.backend_in_use == "kernel"
    return net, routing.cache


def fail_links(net, cache, links):
    """Fail *links* where the route table and the cache both see it: the
    cache's link set and the kernel's dead ports (both directions)."""
    st, kernel, port = net._vec.st, net._vec.kernel, net.topology.port
    for u, v in links:
        cache.fail_link(u, v)
        for a, b in ((u, v), (v, u)):
            kernel.set_dead(st.p_off[a] + port(a, b), True)


def two_links(topo):
    """Two failed links that keep the router graph connected."""
    n = topo.num_routers
    links = [(0, min(topo.neighbors(0))), (n - 1, max(topo.neighbors(n - 1)))]
    g = topo.to_networkx()
    g.remove_edges_from(links)
    assert nx.is_connected(g)
    return links


@pytest.mark.parametrize("policy", sorted(POLICIES))
@pytest.mark.parametrize("name", sorted(TOPOLOGIES))
def test_pristine_candidates_match_route_cache(name, policy):
    topo = TOPOLOGIES[name]()
    net, cache = kernel_net(topo, POLICIES[policy]())
    kernel = net._vec.kernel
    n = topo.num_routers
    for a in range(n):
        for b in range(n):
            paths = cache.paths.paths(a, b)
            legs = kernel.route_candidates(a, b, True)
            minimal = kernel.route_candidates(a, b)
            if len(paths[0]) > 3:
                # More than two hops apart: the pair escapes.
                assert legs is None and minimal is None, (a, b)
                continue
            assert legs == paths, (a, b)
            assert minimal == tuple(
                as_tuple(r) for r in cache.minimal_candidates(a, b)), (a, b)
            # Composition through a deterministic intermediate.
            m = (a + b + 1) % n
            if m in (a, b):
                continue
            for first in cache.paths.paths(a, m):
                for second in cache.paths.paths(m, b):
                    if len(first) > 3 or len(second) > 3:
                        continue
                    got = kernel.route_compose(first, second)
                    assert got == as_tuple(cache.compose(first, second)), (
                        first, second)


@pytest.mark.parametrize("policy", sorted(POLICIES))
@pytest.mark.parametrize("name", sorted(TOPOLOGIES))
def test_failed_links_filter_to_the_live_subsets(name, policy):
    topo = TOPOLOGIES[name]()
    net, cache = kernel_net(topo, POLICIES[policy]())
    kernel = net._vec.kernel
    links = two_links(topo)
    fail_links(net, cache, links)
    n = topo.num_routers
    detoured = 0
    for a in range(n):
        for b in range(n):
            if len(cache.paths.paths(a, b)[0]) > 3:
                continue
            legs = cache.leg_fill(a, b)
            fill = cache.minimal_fill(a, b)
            if not set(legs) & set(cache.paths.paths(a, b)):
                # Zero live candidates: the cache's answer is the BFS
                # detour (labelled indirect when it is too long for the
                # minimal VCs), which the kernel builds from its own BFS
                # tree over the live ports.
                detoured += 1
                assert not set(fill) & set(cache.minimal_candidates(a, b))
            assert kernel.route_candidates(a, b, True) == legs, (a, b)
            assert kernel.route_candidates(a, b) == tuple(
                as_tuple(r) for r in fill), (a, b)
    # Each failed link cuts at least its own endpoints' direct path.
    assert detoured >= 2 * len(links)
    assert net.engine.kernel_stats()["detours"] >= 2 * detoured


def test_recovered_links_restore_the_pristine_table():
    topo = SlimFly(5)
    net, cache = kernel_net(topo, HopIndexVC())
    kernel = net._vec.kernel
    u, v = 0, min(topo.neighbors(0))
    before = kernel.route_candidates(u, v)
    fail_links(net, cache, [(u, v)])
    assert kernel.route_candidates(u, v) == tuple(
        as_tuple(r) for r in cache.minimal_fill(u, v))
    st, port = net._vec.st, topo.port
    for a, b in ((u, v), (v, u)):
        kernel.set_dead(st.p_off[a] + port(a, b), False)
    assert kernel.route_candidates(u, v) == before


def test_vc_budgets_escape_to_the_route_cache():
    topo = SlimFly(5)
    # A one-VC minimal budget cannot label the two-hop paths: the table
    # hands those pairs to the cache (which raises the budget error).
    net, cache = kernel_net(topo, HopIndexVC(1, 3))
    kernel = net._vec.kernel
    a = 0
    b = next(x for x in range(topo.num_routers)
             if x != a and not topo.is_edge(a, x))
    assert kernel.route_candidates(a, b) is None
    assert kernel.route_candidates(a, b, True) == cache.paths.paths(a, b)
    with pytest.raises(ValueError):
        cache.minimal_candidates(a, b)
    # A four-hop composition is past the three-VC indirect budget.
    m = next(x for x in range(topo.num_routers)
             if x not in (a, b) and not topo.is_edge(a, x)
             and not topo.is_edge(x, b))
    first, second = cache.paths.paths(a, m)[0], cache.paths.paths(m, b)[0]
    assert kernel.route_compose(first, second) is None
    with pytest.raises(NoRouteError):
        cache.compose(first, second)


def test_other_vc_policies_take_minimal_routes_from_the_cache():
    class Relabelled(PhaseVC):
        pass

    topo = SlimFly(5)
    net, cache = kernel_net(topo, Relabelled())
    kernel = net._vec.kernel
    assert kernel.route_candidates(0, 1) is None
    assert kernel.route_candidates(0, 1, True) == cache.paths.paths(0, 1)
    first, second = cache.paths.paths(0, 2)[0], cache.paths.paths(2, 3)[0]
    assert kernel.route_compose(first, second) is None


def test_distance_three_pairs_fill_through_the_route_cache():
    # Dragonfly routers in different groups can be three hops apart: the
    # kernel routes those pairs from RouteCache fills, and says so.  (The
    # fills are the C route path's, so the run is unchecked.)
    topo = Dragonfly(2)
    routing = UGALRouting(topo, vc_policy=HopIndexVC(3, 6), seed=3)
    net = Network(topo, routing, SimConfig(backend="kernel"))
    net.run_synthetic(UniformRandom(topo.num_nodes), load=0.3,
                      warmup_ns=200.0, measure_ns=400.0, seed=5)
    fills = net.engine.kernel_stats()["escapes"]["route_fill"]["count"]
    cache = routing.cache
    leg_pairs = sum(legs is not None
                    for row in cache.leg_rows if row for legs in row)
    # One fill per escaped pair: the cache's rows memoise it after.
    assert fills > 0
    assert fills == cache.stats()["minimal_pairs"] + leg_pairs


@pytest.mark.parametrize("cls,pool", [
    (UGALRouting, [0, 1, 2, 10**6]),
    (IndirectRandomRouting, [0, 1, 2, -5]),
])
def test_out_of_range_pool_is_rejected_at_load(cls, pool):
    # The constructors validate the pool; one patched in afterwards
    # must still fail cleanly when the kernel loads it, not index past
    # the route table on the first draw that hits it.
    topo = SlimFly(5)
    routing = cls(topo, seed=1)
    routing._pool = pool
    net = Network(topo, routing, SimConfig(backend="kernel"))
    with pytest.raises(IndexError, match="intermediate"):
        net.run_synthetic(UniformRandom(topo.num_nodes), load=0.5,
                          warmup_ns=200.0, measure_ns=400.0, seed=5)
