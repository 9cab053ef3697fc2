"""Route-cache structure: compiled routes carry the topology's ports,
and UGAL's sub-routers share one cache.

Which route each packet takes is pinned end to end by the golden
conformance fingerprints (``tests/test_golden_conformance.py``) on both
engines; these tests check the cached :class:`~repro.routing.base.Route`
objects themselves.
"""

from repro.experiments.configs import configs_for_scale
from repro.experiments.specs import build_routing

CONFIGS = configs_for_scale("tiny")


def test_compiled_ports_match_topology():
    """Cached Route.ports carry the exact per-hop output ports."""
    cfg = CONFIGS[0]
    topo = cfg.topology()
    routing = build_routing(*cfg.routing_spec("ugal"), topo)
    cache = routing.cache
    n = topo.num_routers
    checked = 0
    for src in range(n):
        for dst in range(n):
            for route in cache.minimal_candidates(src, dst):
                routers = route.routers
                assert route.ports == tuple(
                    topo.port(routers[i], routers[i + 1])
                    for i in range(len(routers) - 1)
                )
                checked += 1
    assert checked >= n * (n - 1)


def test_shared_cache_reused_across_subrouters():
    """UGAL's minimal/indirect sub-routers compile each pair once."""
    cfg = CONFIGS[0]
    topo = cfg.topology()
    routing = build_routing(*cfg.routing_spec("ugal"), topo)
    assert routing._minimal.cache is routing.cache
    assert routing._indirect.cache is routing.cache
    a = routing.cache.minimal_candidates(0, 1)
    b = routing._minimal.cache.minimal_candidates(0, 1)
    assert a is b
