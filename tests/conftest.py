"""Shared fixtures: small topology instances reused across test modules.

Module-scoped so expensive constructions (field setup, adjacency
building) run once per session; topologies are immutable after
construction, so sharing is safe.
"""

from __future__ import annotations

import pytest

from repro.routing import MinimalRouting
from repro.routing.base import NULL_CONGESTION, Route, RoutingAlgorithm
from repro.topology import MLFM, OFT, Dragonfly, FatTree2L, FatTree3L, HyperX2D, SlimFly


@pytest.fixture(scope="session")
def sf5():
    return SlimFly(5)


@pytest.fixture(scope="session")
def sf5_ceil():
    return SlimFly(5, "ceil")


@pytest.fixture(scope="session")
def sf7():
    return SlimFly(7)


@pytest.fixture(scope="session")
def sf8():
    return SlimFly(8)


@pytest.fixture(scope="session")
def sf9():
    return SlimFly(9)


@pytest.fixture(scope="session")
def mlfm4():
    return MLFM(4)


@pytest.fixture(scope="session")
def mlfm5():
    return MLFM(5)


@pytest.fixture(scope="session")
def oft3():
    return OFT(3)


@pytest.fixture(scope="session")
def oft4():
    return OFT(4)


@pytest.fixture(scope="session")
def hyperx():
    return HyperX2D.balanced(9)


@pytest.fixture(scope="session")
def ft2():
    return FatTree2L(8)


@pytest.fixture(scope="session")
def ft3():
    return FatTree3L(4)


@pytest.fixture(scope="session")
def dragonfly():
    return Dragonfly(2)


@pytest.fixture(scope="session")
def all_diameter2(sf5, mlfm4, oft4, hyperx, ft2):
    """The diameter-two topologies used in cross-cutting invariant tests."""
    return [sf5, mlfm4, oft4, hyperx, ft2]


@pytest.fixture(scope="session")
def paper_trio(sf5, mlfm4, oft4):
    """The three topologies the paper evaluates, at test scale."""
    return [sf5, mlfm4, oft4]


class LoopingRouting(RoutingAlgorithm):
    """Minimal routes that first circle *loops* times between the source
    router and its lowest neighbour, on VC 0: with three loops every
    route between distinct routers has more than eight ports, the
    route a kernel packet slot holds inline."""

    def __init__(self, topo, loops: int = 3, seed: int = 5):
        self.inner = MinimalRouting(topo, seed=seed)
        self.topo = topo
        self.loops = loops

    @property
    def num_vcs(self):
        return self.inner.num_vcs

    def route(self, src_router, dst_router, congestion=NULL_CONGESTION):
        r = self.inner.route(src_router, dst_router, congestion)
        if src_router == dst_router:
            return r
        via = min(self.topo.neighbors(src_router))
        loop = (src_router, via) * self.loops
        return Route(loop + r.routers, (0,) * (2 * self.loops) + r.vcs,
                     r.kind)


@pytest.fixture(scope="session")
def looping_routing():
    """The :class:`LoopingRouting` class (a custom routing whose routes
    spill out of a kernel slot)."""
    return LoopingRouting
