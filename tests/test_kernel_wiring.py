"""The kernel's flat wiring against the object engine's.

:meth:`SoAState.from_topology` numbers every port, input and NIC from
the topology alone, so nothing ties it to the object engine's
``Router``/``OutputPort``/``NIC`` wiring except these tests: on every
topology family, every id must match what an object network wires, and
the kernel built from those ids must run exactly like the object engine
(the C kernel indexes its arrays with them unchecked, so the run also
serves the sanitizer build).  A kernel network must build none of the
object engine, which the allocation test holds to a bound.
"""

from __future__ import annotations

import gc
import tracemalloc

import pytest

from repro.analysis.faults import safe_vc_policy
from repro.experiments.specs import parse_topology
from repro.routing import MinimalRouting, UGALRouting
from repro.sim import Network, SimConfig
from repro.sim.nic import NIC
from repro.sim.switch import OutputPort, Router
from repro.sim.vec.kernel import load_kernel
from repro.topology import SlimFly, topology_from_dict, topology_to_dict
from repro.traffic import UniformRandom

needs_kernel = pytest.mark.skipif(
    load_kernel() is None,
    reason="compiled kernel unavailable (no compiler or REPRO_NO_KERNEL set)",
)

#: One small instance of every family ``parse_topology`` accepts.
SPECS = (
    "sf:q=5",
    "sf:q=5,p=ceil",
    "mlfm:h=4",
    "oft:k=4",
    "sspt:r1=4,r2=4",
    "hyperx:r=9",
    "ft2:r=8",
    "ft3:r=4",
    "dfly:p=2",
)
LOADED = "loaded(dfly:p=2)"


def build(name):
    if name == LOADED:
        return topology_from_dict(topology_to_dict(parse_topology("dfly:p=2")))
    return parse_topology(name)


def minimal_routing(topo):
    """Minimal routing, with VC budgets for minimal paths longer than
    the diameter-two default (Dragonfly, three-level fat tree)."""
    vc_policy = safe_vc_policy(topo) if topo.endpoint_diameter() > 2 else None
    return MinimalRouting(topo, seed=1, vc_policy=vc_policy)


def object_wiring(net):
    """The kernel's id lists, read off an object network's wiring."""
    p_off, in_off = [], []
    np_total = ni_total = 0
    for router in net.routers:
        p_off.append(np_total)
        in_off.append(ni_total)
        np_total += len(router.out)
        ni_total += len(router.in_q)
    p_dest_in, p_has_cred = [], []
    in_pbase, in_up_port, in_up_node = [], [], []
    for r, router in enumerate(net.routers):
        for out in router.out:
            p_dest_in.append(-1 if out.downstream is None
                             else in_off[out.downstream.rid] + out.downstream_in_idx)
            p_has_cred.append(out.credits is not None)
        for upstream in router.in_upstream:
            in_pbase.append(p_off[r])
            if isinstance(upstream, NIC):
                in_up_port.append(-1)
                in_up_node.append(upstream.node)
            else:
                in_up_port.append(p_off[upstream.router.rid] + upstream.port.out_idx)
                in_up_node.append(-1)
    nr = len(net.routers)
    row_port = [-1] * (nr * nr)
    for r, row in enumerate(net._channel_rows):
        for neighbor, out in enumerate(row):
            if out is not None:
                row_port[r * nr + neighbor] = p_off[r] + out.out_idx
    return {
        "NP": np_total,
        "NI": ni_total,
        "p_off": p_off,
        "p_dest_in": p_dest_in,
        "p_has_cred": p_has_cred,
        "in_pbase": in_pbase,
        "in_up_port": in_up_port,
        "in_up_node": in_up_node,
        "n_rid": [nic.router_id for nic in net.nics],
        "n_in": [in_off[nic.router_id] + nic.in_idx for nic in net.nics],
        "n_eject": list(net._eject_ports),
        "row_port": row_port,
    }


@needs_kernel
@pytest.mark.parametrize("name", SPECS + (LOADED,))
def test_ids_match_object_wiring(name):
    topo = build(name)
    obj = Network(topo, minimal_routing(topo), SimConfig(backend="object"))
    ker = Network(topo, minimal_routing(topo), SimConfig(backend="kernel"))
    assert ker.backend_in_use == "kernel"
    st = ker._vec.st
    # The wiring is int32 arrays, the object engine's lists: compare values.
    for field, expected in object_wiring(obj).items():
        got = getattr(st, field)
        assert (got if isinstance(got, int) else list(got)) == expected, field
    assert (st.V, st.NN, st.NR) == (obj.num_vcs, topo.num_nodes, topo.num_routers)
    assert list(ker._eject_ports) == obj._eject_ports


@needs_kernel
@pytest.mark.parametrize("name", SPECS + (LOADED,))
def test_kernel_runs_like_object_engine(name):
    topo = build(name)

    def run(backend):
        net = Network(topo, minimal_routing(topo), SimConfig(backend=backend))
        assert net.backend_in_use == backend
        s = net.run_synthetic(UniformRandom(topo.num_nodes), load=0.7,
                              warmup_ns=200, measure_ns=800, seed=2, drain=True)
        return ({field: getattr(s, field) for field in s.__slots__},
                net.channel_utilization(), net.stats.ejected_total)

    obj = run("object")
    assert obj[2] > 0
    assert run("kernel") == obj


def allocated_by_network(topo, backend):
    """The network built on *topo* with UGAL, and the peak bytes traced
    while it was built."""
    routing = UGALRouting(topo, seed=0)
    tracemalloc.start()
    try:
        net = Network(topo, routing, SimConfig(backend=backend))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert net.backend_in_use == backend
    return net, peak


def object_engine_instances():
    gc.collect()
    return sum(isinstance(o, (Router, OutputPort, NIC)) for o in gc.get_objects())


@needs_kernel
def test_kernel_network_builds_no_object_engine():
    # SF q=7 (98 routers, 490 nodes) with UGAL: the object engine's
    # routers, ports, per-VC deques and NICs dominate its allocation.
    # A kernel network builds none of them, so it allocates at most
    # half as much.
    topo = SlimFly(7)
    obj_net, obj = allocated_by_network(topo, "object")
    del obj_net
    before = object_engine_instances()
    net, ker = allocated_by_network(topo, "kernel")
    assert object_engine_instances() == before
    assert not hasattr(net, "routers")
    assert ker <= obj / 2, (ker, obj)
