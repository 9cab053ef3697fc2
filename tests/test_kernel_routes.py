"""Routes read back from the kernel's packet slots, packet by packet.

The goldens' delivery digest hashes each packet's pid, endpoints, route
kind and ejection time, but not its route, so a router, port or VC
read back wrongly from a packet slot would pass them unless it moved a
packet.  Here a delivery listener records every packet's
``(routers, ports, vcs, kind, eject_time)`` on both engines, and the
two records must be equal pid for pid: saturated UGAL on the tiny Slim
Fly and MLFM, INR's four-hop Valiant routes on the OFT, the fault
golden's schedule (whose detours are eight ports long) and a custom
routing whose looping routes outgrow the slot's inline route.  With a
listener attached every delivery materialises its ``Packet`` from the
slot, so the kernel's routes come back through its own storage.  A
route the slot cannot hold as given -- routers that do not follow its
ports, an unprovisioned VC, more VCs than a slot's uint8 -- is
refused.
"""

from __future__ import annotations

import pytest

from repro.experiments import conformance
from repro.experiments.configs import configs_for_scale
from repro.experiments.specs import build_routing
from repro.routing import MinimalRouting
from repro.routing.base import NULL_CONGESTION, Route, RoutingAlgorithm
from repro.sim import Network, SimConfig
from repro.sim.vec.kernel import load_kernel
from repro.traffic import UniformRandom

pytestmark = pytest.mark.skipif(
    load_kernel() is None,
    reason="compiled kernel unavailable (no compiler or REPRO_NO_KERNEL set)",
)

ENGINES = ("object", "kernel")

#: Route entries a kernel slot holds without a separate allocation.
INLINE_PORTS = 8


def tiny_routing(key: str, kind: str, topo):
    cfg = {c.key: c for c in configs_for_scale("tiny")}[key]
    return build_routing(*cfg.routing_spec(kind), topo, seed=0)


def tiny_topology(key: str):
    return {c.key: c for c in configs_for_scale("tiny")}[key].topology()


def delivered_routes(net: Network, load: float, seed: int,
                     measure_ns: float = 900.0) -> dict:
    """pid -> (routers, ports, vcs, kind, eject_time) of every packet
    *net* delivers in a drained uniform run."""
    routes = {}

    def record(pkt) -> None:
        routes[pkt.pid] = (pkt.routers, pkt.ports, pkt.vcs, pkt.kind,
                           pkt.eject_time)

    net.add_delivery_listener(record)
    net.run_synthetic(UniformRandom(net.topology.num_nodes), load=load,
                      warmup_ns=200.0, measure_ns=measure_ns, seed=seed,
                      drain=True)
    assert net.stats.ejected_total == net.stats.injected_total == len(routes)
    return routes


def assert_same_routes(build, load: float, seed: int):
    """Run *build(engine)* on both engines; the kernel's routes must be
    the object engine's, pid for pid.  Returns them and the kernel's
    memory stats."""
    runs = {}
    for engine in ENGINES:
        net = build(engine)
        assert net.backend_in_use == engine
        runs[engine] = delivered_routes(net, load, seed)
    mem = net.engine.memory_stats()
    assert mem["slots_live"] == mem["spilled_routes"] == 0, mem
    assert runs["kernel"].keys() == runs["object"].keys()
    diff = [pid for pid, r in runs["object"].items()
            if runs["kernel"][pid] != r]
    assert not diff, (diff[:5], [(runs["object"][p], runs["kernel"][p])
                                 for p in diff[:3]])
    return runs["kernel"], mem


def longest(routes: dict) -> int:
    return max(len(ports) for _, ports, _, _, _ in routes.values())


@pytest.mark.parametrize("key", ["sf-floor", "mlfm"])
def test_saturated_ugal_routes_match(key):
    def build(engine):
        topo = tiny_topology(key)
        return Network(topo, tiny_routing(key, "ugal", topo),
                       SimConfig(backend=engine))

    routes, _ = assert_same_routes(build, load=1.0, seed=11)
    kinds = {kind for _, _, _, kind, _ in routes.values()}
    assert kinds == {"minimal", "indirect"}
    assert longest(routes) == 5  # a four-hop Valiant route and ejection


def test_inr_valiant_routes_match_on_oft():
    def build(engine):
        topo = tiny_topology("oft")
        return Network(topo, tiny_routing("oft", "inr", topo),
                       SimConfig(backend=engine))

    routes, _ = assert_same_routes(build, load=0.5, seed=12)
    assert longest(routes) == 5


def test_fault_detour_routes_match():
    # The fault golden's schedule: rerouted packets carry detours of up
    # to eight ports, the inline capacity, so none spills.
    def build(engine):
        topo = tiny_topology(conformance.FAULT_CASE_KEY.split("/")[0])
        routing = tiny_routing("sf-floor", "ugal", topo)
        return Network(topo, routing, SimConfig(
            backend=engine, faults=conformance.fault_specs(topo)))

    routes, mem = assert_same_routes(build, load=conformance.LOAD,
                                     seed=1_000)
    assert longest(routes) == INLINE_PORTS
    assert mem["spilled_routes_hwm"] == 0, mem


def test_routes_past_the_inline_capacity_match(looping_routing):
    topo = tiny_topology("sf-floor")

    def build(engine):
        return Network(topo, looping_routing(topo), SimConfig(backend=engine))

    routes, mem = assert_same_routes(build, load=0.2, seed=13)
    assert longest(routes) > INLINE_PORTS
    assert mem["spilled_routes_hwm"] > 0, mem


class RewrittenRouting(RoutingAlgorithm):
    """Minimal routes with their last router or their VC labels
    rewritten after the hop ports were compiled."""

    def __init__(self, topo, field: str, vcs: int = 0):
        self.inner = MinimalRouting(topo, seed=5)
        self.topo = topo
        self.field = field
        self.vcs = vcs or self.inner.num_vcs

    @property
    def num_vcs(self):
        return self.vcs

    def route(self, src_router, dst_router, congestion=NULL_CONGESTION):
        r = self.inner.route(src_router, dst_router, congestion)
        routers, vcs = r.routers, r.vcs
        if self.field == "routers" and len(routers) > 1:
            wrong = (routers[-1] + 1) % self.topo.num_routers
            routers = routers[:-1] + (wrong,)
        if self.field == "vcs":
            vcs = tuple(v + self.inner.num_vcs for v in vcs)
        return Route(routers, vcs, r.kind, ports=r.ports)


@pytest.mark.parametrize("field, error, match", [
    ("routers", ValueError, "routers do not follow its ports"),
    ("vcs", IndexError, "route VC"),
])
def test_kernel_rejects_a_route_it_cannot_follow(field, error, match):
    # The routers a slot hands back are derived from the ports, so a
    # route whose routers disagree with its ports, or that labels a VC
    # the network lacks, is refused when the kernel loads it.
    topo = tiny_topology("sf-floor")
    net = Network(topo, RewrittenRouting(topo, field),
                  SimConfig(backend="kernel"))
    with pytest.raises(error, match=match):
        net.run_synthetic(UniformRandom(topo.num_nodes), load=0.2,
                          warmup_ns=100.0, measure_ns=100.0, seed=3)


def test_kernel_refuses_more_vcs_than_a_slot_holds():
    topo = tiny_topology("sf-floor")
    with pytest.raises(ValueError, match="VCs past a slot"):
        Network(topo, RewrittenRouting(topo, "", vcs=257),
                SimConfig(backend="kernel"))
