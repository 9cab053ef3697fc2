"""Leaks and boundedness of the compiled kernel's state.

The kernel owns references to routes, message ids, NIC sources,
callbacks and materialised packets, and recycles packet slots on
delivery.  Repeating kernel runs of every kind in one process -- open
loop drained to empty, a closed-loop halo exchange with its delivery
listener and fault diverts, scheduled CALLs that submit traffic --
must leave reference counts on the shared objects and the traced heap
where they started, and every run must end with no packet slot alive
and no credit FIFO deeper than the credits its VC can hold.
"""

from __future__ import annotations

import gc
import sys
import tracemalloc

import pytest

from repro.routing import UGALRouting
from repro.sim import Network, SimConfig
from repro.sim.packet import Packet
from repro.sim.vec.kernel import load_kernel
from repro.topology import SlimFly
from repro.traffic import UniformRandom
from repro.workload import build_workload

pytestmark = pytest.mark.skipif(
    load_kernel() is None,
    reason="compiled kernel unavailable (no compiler or REPRO_NO_KERNEL set)",
)

ROUNDS = 3
#: Heap growth tolerated after ROUNDS repetitions (interpreter-level
#: caches such as the warnings registry); one round allocates megabytes.
SLACK_BYTES = 64 * 1024


def peak_in_flight(intervals) -> int:
    """Most packets alive at once, counting a send and a delivery at the
    same instant as overlapping (an upper bound on the true peak)."""
    edges = sorted([(s, 0) for s, _ in intervals] + [(e, 1) for _, e in intervals])
    live = peak = 0
    for _, kind in edges:
        live += 1 if kind == 0 else -1
        peak = max(peak, live)
    return peak


def check_bounded(net: Network, intervals=None) -> None:
    mem = net.engine.memory_stats()
    assert mem["slots_live"] == 0, mem
    assert mem["credit_fifo_hwm"] <= mem["vc_capacity"], mem
    assert mem["nic_credit_fifo_hwm"] <= mem["nic_capacity"], mem
    if intervals is not None:
        assert 0 < mem["slots_hwm"] <= peak_in_flight(intervals), mem


class Harness:
    """Shared inputs of the repeated runs (what the refcounts watch)."""

    def __init__(self):
        self.topo = SlimFly(5)
        self.routing = UGALRouting(self.topo, seed=0)
        self.rngs = [self.routing._minimal._rng, self.routing._indirect._rng]
        self.rng_states = [r.getstate() for r in self.rngs]
        self.pattern = UniformRandom(self.topo.num_nodes)
        self.route = self.routing.cache.minimal_candidates(0, 5)[0]
        self.halo = build_workload("halo3d", self.topo.num_nodes, 1024)

    def shared(self):
        return [self.route, self.pattern, Packet, self.topo, self.halo,
                *self.rngs]

    def _fresh_rngs(self):
        # Identical draws every round, so route caches stop growing
        # after the first one.
        for rng, state in zip(self.rngs, self.rng_states):
            rng.setstate(state)

    def open_loop(self):
        self._fresh_rngs()
        net = Network(self.topo, self.routing, SimConfig(backend="kernel"))
        intervals = []
        net.add_delivery_listener(
            lambda p: intervals.append((p.send_time, p.eject_time)))
        net.run_synthetic(self.pattern, load=0.6, warmup_ns=200.0,
                          measure_ns=600.0, seed=4, drain=True)
        assert net.stats.ejected_total == net.stats.injected_total > 0
        check_bounded(net, intervals)

    def open_loop_fast(self):
        self._fresh_rngs()
        net = Network(self.topo, self.routing, SimConfig(backend="kernel"))
        net.run_synthetic(self.pattern, load=0.6, warmup_ns=200.0,
                          measure_ns=600.0, seed=4, drain=True)
        assert net.stats.ejected_total == net.stats.injected_total > 0
        check_bounded(net)

    def halo_with_faults(self):
        # Faults mark links failed in the routing's own RouteCache, so
        # this run gets a routing of its own.
        routing = UGALRouting(self.topo, seed=1)
        net = Network(self.topo, routing, SimConfig(
            backend="kernel", faults=("drip@300:n=2,every=200,seed=3",)))
        result = net.run_workload(self.halo)
        assert result["fault_events"] == 2
        check_bounded(net)

    def scheduled_submits(self):
        self._fresh_rngs()
        net = Network(self.topo, self.routing, SimConfig(backend="kernel"))
        nics = net.nics
        for i, t in enumerate((250.0, 400.0, 610.0)):
            net.engine.schedule(t, nics[i].submit,
                                (i * 7 + 3) % self.topo.num_nodes, 64, i)
        net.run_synthetic(self.pattern, load=0.3, warmup_ns=200.0,
                          measure_ns=500.0, seed=6, drain=True)
        assert net.stats.ejected_total == net.stats.injected_total > 0
        check_bounded(net)

    def round(self):
        self.open_loop()
        self.open_loop_fast()
        self.halo_with_faults()
        self.scheduled_submits()
        gc.collect()


def test_repeated_runs_leak_nothing_and_stay_bounded():
    h = Harness()
    h.round()  # warm every cache once
    tracemalloc.start()
    try:
        gc.collect()
        refs = [sys.getrefcount(obj) for obj in h.shared()]
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(ROUNDS):
            h.round()
        gc.collect()
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert [sys.getrefcount(obj) for obj in h.shared()] == refs
    assert after - before <= SLACK_BYTES, (
        f"traced heap grew by {after - before} bytes over {ROUNDS} rounds")


def test_slots_recycle_under_saturation():
    # Past saturation the NIC queues grow without bound, but packet
    # slots track packets in the network, not packets generated.
    topo = SlimFly(5)
    net = Network(topo, UGALRouting(topo, seed=2), SimConfig(backend="kernel"))
    net.run_synthetic(UniformRandom(topo.num_nodes), load=1.0,
                      warmup_ns=200.0, measure_ns=1500.0, seed=2)
    mem = net.engine.memory_stats()
    assert mem["slots_live"] == net.stats.injected_total - net.stats.ejected_total
    assert mem["slots_allocated"] == mem["slots_hwm"]
    assert mem["slots_hwm"] < net.stats.injected_total
    assert mem["credit_fifo_hwm"] <= mem["vc_capacity"]
