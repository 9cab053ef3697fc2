"""Leaks and boundedness of the compiled kernel's state.

The kernel owns references to routes, callbacks and a closed-loop
driver's message countdown, holds one NIC queue entry of plain C data
per queued message (its message id a C integer), recycles packet slots
(plain C data too) on delivery, and draws open-loop streams in chunks
from per-node generator states.  Repeating kernel runs of every kind in
one process -- open loop drained to empty, long open-loop streams that
refill their chunks, a run stopped while every node still holds its
generator state, closed-loop halo exchanges of one and of two iterations
with fault diverts and the C message countdown, one whose faults drop
packets, a fault detour that grows a route past a slot's inline entries,
a completion callback that raises (and the countdown's tables, released
by ``clear()``, by re-arming and with the kernel), scheduled CALLs that
submit traffic, CALLs dropped by ``clear()`` while pending and a CALL
that raises, finite exchanges in order and interleaved and one stopped
with messages still queued -- must leave reference counts on the shared
objects (callbacks, message ids) and the traced heap where they started,
free every driver, and every run must end with no packet slot alive, no
message queued and no credit FIFO deeper than the credits its VC can
hold.  Building a kernel and freeing it leaves nothing behind either,
and hands back its view of the collector's per-node eject counts.  The
generator's memory must not grow with the horizon, and no node may keep
its generator state once its stream has ended.  A packet costs its slot
and nothing else: a saturated run grows the traced heap by no more than
its slots plus a fixed allowance, and a route too long for a slot's
inline route spills to a block that goes with the packet on delivery,
with ``clear()`` and with the kernel.  The kernel's GC referents do not
grow with the packets in flight or the messages queued.
"""

from __future__ import annotations

import gc
import sys
import tracemalloc
import weakref
from array import array

import pytest

from repro.routing import MinimalRouting, UGALRouting
from repro.routing.vc import HopIndexVC
from repro.sim import Network, SimConfig
from repro.sim.packet import Packet
from repro.sim.vec.kernel import load_kernel
from repro.topology import SlimFly
from repro.traffic import (
    AllToAll,
    NearestNeighbor3D,
    PermutationTraffic,
    UniformRandom,
)
from repro.workload import WorkloadDriver, build_workload
from tests.conftest import LoopingRouting

pytestmark = pytest.mark.skipif(
    load_kernel() is None,
    reason="compiled kernel unavailable (no compiler or REPRO_NO_KERNEL set)",
)

ROUNDS = 3
#: Heap growth tolerated after ROUNDS repetitions (interpreter-level
#: caches such as the warnings registry); one round allocates megabytes.
SLACK_BYTES = 64 * 1024


#: Load at which the long-stream runs generate: a 40.96 ns mean gap.
LONG_LOAD = 0.5
MEAN_IA = 20.48 / LONG_LOAD


def sparse_permutation(num_nodes: int) -> PermutationTraffic:
    """Two active senders; every other node draws idle entries only, so
    a long horizon costs GEN events, not packets."""
    dsts = [-1] * num_nodes
    dsts[0], dsts[7] = 30, 91
    return PermutationTraffic(dsts)


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
    assert mem["slots_live"] == mem["spilled_routes"] == 0, mem
    assert mem["nic_backlog"] == 0, mem
    assert mem["credit_fifo_hwm"] <= mem["vc_capacity"], mem
    assert mem["nic_credit_fifo_hwm"] <= mem["nic_capacity"], mem
    if intervals is not None:
        assert 0 < mem["slots_hwm"] <= peak_in_flight(intervals), mem


class Callback:
    """A scheduled callable whose refcount the harness watches."""

    def __init__(self):
        self.calls = 0

    def __call__(self, arg):
        self.calls += 1


class Failure(Exception):
    pass


class ReroutedLoops(LoopingRouting):
    """Looping routes with the ``RouteCache`` a fault manager needs, and
    the VCs of a detour of up to four hops."""

    def __init__(self, topo):
        super().__init__(topo)
        self.inner = MinimalRouting(topo, seed=5, vc_policy=HopIndexVC(4, 8))

    @property
    def cache(self):
        return self.inner.cache


def fail(arg):
    raise Failure(arg)


class Harness:
    """Shared inputs of the repeated runs (what the refcounts watch)."""

    def __init__(self):
        self.topo = SlimFly(5)
        self.routing = UGALRouting(self.topo, seed=0)
        self.rngs = [self.routing._minimal._rng, self.routing._indirect._rng]
        self.rng_states = [r.getstate() for r in self.rngs]
        self.pattern = UniformRandom(self.topo.num_nodes)
        self.sparse = sparse_permutation(self.topo.num_nodes)
        self.route = self.routing.cache.minimal_candidates(0, 5)[0]
        self.halo = build_workload("halo3d", self.topo.num_nodes, 1024)
        # Two iterations: completions release messages mid-run.
        self.halo2 = build_workload("halo3d", self.topo.num_nodes, 1000,
                                    iterations=2)
        # Message ids past the small-int cache: queued sends and
        # packet slots keep them as C integers, so their reference
        # counts must not move.
        self.mids = [m.mid for m in self.halo2 if m.mid > 1_000][:4]
        # Two packets per message, sent in order; six neighbours'
        # messages sent in turn.
        self.a2a = AllToAll(self.topo.num_nodes, message_bytes=300)
        self.nn = NearestNeighbor3D(self.topo.num_nodes, message_bytes=1_000)
        self.callback = Callback()
        self.payload = object()
        self.drivers = []  # weak references to every driver run

    def shared(self):
        return [self.route, self.pattern, self.sparse, Packet, self.topo,
                self.halo, self.halo2, self.a2a, self.nn, self.callback,
                self.payload, fail, *self.mids, *self.rngs]

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

    def long_streams(self):
        # About 1,100 entries per node: every stream refills its chunk
        # four times and ends with no generator state left.
        self._fresh_rngs()
        net = Network(self.topo, self.routing, SimConfig(backend="kernel"))
        net.run_synthetic(self.sparse, load=LONG_LOAD, warmup_ns=200.0,
                          measure_ns=1_100 * MEAN_IA, seed=5, drain=True)
        mem = net.engine.memory_stats()
        assert mem["gen_refills"] >= 4 * self.topo.num_nodes, mem
        assert mem["gen_states"] == 0, mem
        check_bounded(net)

    def stopped_streams(self):
        # A CALL that raises stops the run mid-horizon, while every node
        # still holds its generator state; the kernel frees them with
        # the network.
        self._fresh_rngs()
        net = Network(self.topo, self.routing, SimConfig(backend="kernel"))
        net.engine.schedule(300 * MEAN_IA, fail, self.payload)
        with pytest.raises(Failure):
            net.run_synthetic(self.sparse, load=LONG_LOAD, warmup_ns=200.0,
                              measure_ns=600 * MEAN_IA, seed=5)
        assert net.engine.memory_stats()["gen_states"] == self.topo.num_nodes

    def halo_with_faults(self):
        # Faults mark links failed in the routing's own RouteCache, so
        # this run gets a routing of its own.
        routing = UGALRouting(self.topo, seed=1)
        net = Network(self.topo, routing, SimConfig(
            backend="kernel", faults=("drip@300:n=2,every=200,seed=3",)))
        result = net.run_workload(self.halo)
        assert result["fault_events"] == 2
        check_bounded(net)

    def halo_iterations_with_faults(self):
        # The C countdown releases the second iteration from its
        # completion escapes while drip faults divert packets.
        routing = UGALRouting(self.topo, seed=2)
        net = Network(self.topo, routing, SimConfig(
            backend="kernel", faults=("drip@500:n=3,every=400,seed=5",)))
        driver = WorkloadDriver(net, self.halo2)
        self.drivers.append(weakref.ref(driver))
        result = driver.run()
        assert result["fault_events"] == 3
        check_bounded(net)

    def halo_dropped_at_faults(self):
        # Under fault_policy="drop" the kernel drops the packets that
        # would enter a dead port, releasing their slots and message
        # ids; the halo cannot complete, but the network drains.
        routing = UGALRouting(self.topo, seed=3)
        net = Network(self.topo, routing, SimConfig(
            backend="kernel", faults=("drip@300:n=3,every=200,seed=3",),
            fault_policy="drop"))
        with pytest.raises(RuntimeError, match="dropped at failed links"):
            net.run_workload(self.halo2)
        assert net.fault_manager.dropped > 0
        check_bounded(net)

    def detour_past_inline(self):
        # Router 0's nodes send one packet each to a neighbour's node at
        # time 0, on routes that loop three times first: eight ports,
        # inline.  Their last link fails while they loop, so each is
        # rerouted from hop 6, and its detour spills the route.
        topo = self.topo
        src, dst = 0, max(topo.neighbors(0))
        net = Network(topo, ReroutedLoops(topo), SimConfig(
            backend="kernel", faults=(f"fail@10:{src}-{dst}",)))
        nodes = topo.nodes_of(src)
        target = topo.nodes_of(dst)[0]

        def send():
            for node, mid in zip(nodes, self.mids):
                net.nics[node].submit(target, 200, mid)

        net._claim_experiment(send)
        net.engine.run()
        mem = net.engine.memory_stats()
        assert net.fault_manager.reroutes == min(len(nodes), len(self.mids))
        assert mem["spilled_routes_hwm"] == net.fault_manager.reroutes, mem
        check_bounded(net)

    def raising_completion(self):
        # The first completion callback raises: the run stops with the
        # other messages' packets in flight, and clear() frees their
        # slots and the message tables.  The kernel holds a view of each
        # table (packets left, release flags, completion times) while
        # armed: clear(), re-arming and freeing the kernel each hand the
        # tables' owners their references back.
        self._fresh_rngs()
        net = Network(self.topo, self.routing, SimConfig(backend="kernel"))
        pkt = net.config.packet_bytes
        packets = [0 if m.is_local else -(-m.size // pkt) for m in self.halo2]
        releases = [bool(d) for d in self.halo2.dependents().values()]
        times = net.watch_messages(packets, releases, fail)
        tables = [net._msg_left, net._msg_release, times]
        for msg in self.halo2:
            if not msg.deps:
                net.nics[msg.src].submit(msg.dst, msg.size, msg.mid)
        eng = net.engine
        with pytest.raises(Failure):
            eng.run()
        mem = eng.memory_stats()
        assert mem["slots_live"] > 0
        assert mem["msg_watched"] == self.halo2.num_messages
        assert sum(t >= 0.0 for t in times) > 0
        held = [sys.getrefcount(t) for t in tables]
        eng.clear()
        mem = eng.memory_stats()
        assert mem["slots_live"] == 0 and mem["msg_watched"] == 0, mem
        start = [n - 1 for n in held]
        assert [sys.getrefcount(t) for t in tables] == start
        fresh = [array("i", packets), bytes(releases), array("d", times)]
        fresh_start = [sys.getrefcount(t) for t in fresh]
        kernel = eng.kernel
        kernel.watch(*tables, fail)
        assert [sys.getrefcount(t) for t in tables] == [n + 1 for n in start]
        kernel.watch(*fresh, fail)  # re-arming releases the old tables
        assert [sys.getrefcount(t) for t in tables] == start
        assert [sys.getrefcount(t) for t in fresh] == [n + 1 for n in fresh_start]
        assert eng.memory_stats()["msg_watched"] == self.halo2.num_messages
        del net, eng, kernel, tables, times
        gc.collect()  # the kernel is freed with its network
        assert [sys.getrefcount(t) for t in fresh] == fresh_start

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

    def clear_with_pending_calls(self):
        # Call-table records freed by clear(), not by dispatch: some
        # CALLs run, the far-future ones are still pending.
        net = Network(self.topo, self.routing, SimConfig(backend="kernel"))
        eng = net.engine
        for t in (10.0, 20.0, 1e9, 2e9, 3e9):
            eng.schedule(t, self.callback, self.payload)
        calls = self.callback.calls
        eng.run(until=100.0)
        assert self.callback.calls == calls + 2
        assert eng.pending == 3
        eng.clear()
        assert eng.pending == 0

    def raising_call(self):
        # A CALL that raises aborts the run; its record is released on
        # dispatch and the one behind it stays queued until clear().
        net = Network(self.topo, self.routing, SimConfig(backend="kernel"))
        eng = net.engine
        eng.schedule(5.0, fail, self.payload)
        eng.schedule(6.0, self.callback, self.payload)
        with pytest.raises(Failure):
            eng.run()
        assert eng.pending == 1
        eng.clear()

    def exchanges(self):
        # Tracked, so every delivery escapes to the message tracker.
        self._fresh_rngs()
        net = Network(self.topo, self.routing, SimConfig(backend="kernel"))
        result = net.run_exchange(self.a2a, track_messages=True)
        n = self.topo.num_nodes
        assert result["messages"]["count"] == n * (n - 1)
        check_bounded(net)
        self._fresh_rngs()
        net = Network(self.topo, self.routing, SimConfig(backend="kernel"))
        net.run_exchange(self.nn)
        check_bounded(net)
        # Stopped with most messages still queued: clear() frees their
        # entries and the packets in flight.
        self._fresh_rngs()
        net = Network(self.topo, self.routing, SimConfig(backend="kernel"))
        with pytest.raises(RuntimeError, match="exchange incomplete"):
            net.run_exchange(self.a2a, max_events=2_000)
        eng = net.engine
        mem = eng.memory_stats()
        assert mem["nic_backlog"] > self.topo.num_nodes, mem
        assert mem["slots_live"] > 0, mem
        eng.clear()
        check_bounded(net)

    def round(self):
        self.open_loop()
        self.open_loop_fast()
        self.long_streams()
        self.stopped_streams()
        self.halo_with_faults()
        self.halo_iterations_with_faults()
        self.halo_dropped_at_faults()
        self.detour_past_inline()
        self.raising_completion()
        self.scheduled_submits()
        self.clear_with_pending_calls()
        self.raising_call()
        self.exchanges()
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
    assert len(h.drivers) == ROUNDS + 1
    assert all(ref() is None for ref in h.drivers)
    assert after - before <= SLACK_BYTES, (
        f"traced heap grew by {after - before} bytes over {ROUNDS} rounds")


def test_building_kernels_leaves_nothing_behind():
    # Kernel_init reads the wiring by attribute name.  A fresh name
    # string per lookup stayed referenced by CPython's type attribute
    # cache, so 150 more builds grew the traced heap by about 11 KB.
    topo = SlimFly(5)
    routing = MinimalRouting(topo, seed=0)
    config = SimConfig(backend="kernel")

    def build(times):
        for _ in range(times):
            Network(topo, routing, config)
        gc.collect()
        return tracemalloc.get_traced_memory()[0]

    tracemalloc.start()
    try:
        first = build(10)
        later = build(150)
    finally:
        tracemalloc.stop()
    assert later - first < 2 * 1024, (
        f"150 more kernels grew the traced heap by {later - first} bytes")


def test_eject_count_view_is_released_with_the_kernel():
    # The kernel increments the collector's per-node eject counts in
    # place, through a view it holds from build to dealloc, which pins
    # the array's size.  Freed with its network, the kernel hands the
    # view back, and the array can be resized again.
    topo = SlimFly(5)
    net = Network(topo, MinimalRouting(topo, seed=0),
                  SimConfig(backend="kernel"))
    counts = net.stats.eject_count_per_node
    with pytest.raises(ValueError, match="cannot resize"):
        counts.resize(topo.num_nodes + 1)
    held = sys.getrefcount(counts)
    del net
    gc.collect()
    # The collector's attribute and the kernel's view are gone.
    assert sys.getrefcount(counts) == held - 2
    counts.resize(topo.num_nodes + 1)
    assert counts.shape == (topo.num_nodes + 1,)


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


#: What a saturated run may add to the traced heap besides its packet
#: slots: the event lanes, the queue rings, the NIC backlog and the
#: latency block, about 0.6 MiB on the run below.  A block per packet
#: on top of the slot would add 48 B or more for each of its ~5,700
#: packets.
SATURATED_ALLOWANCE = 768 * 1024


def test_saturated_run_allocates_no_block_per_packet(monkeypatch):
    # Probed from t=0 (the streams already set up) to the end of a
    # saturated window: the heap grows by the slot pages, a page of
    # which at most is unused, and by structures that do not grow with
    # the packets (no more blocks than there are packets).  On the fast
    # path, which builds no Packet (the escapes make one per packet).
    monkeypatch.delenv("REPRO_KERNEL_NO_FASTPATH", raising=False)
    topo = SlimFly(5)
    net = Network(topo, UGALRouting(topo, seed=2), SimConfig(backend="kernel"))
    eng = net.engine
    probes = []

    def probe(t):
        gc.collect()
        heap = tracemalloc.get_traced_memory()[0]
        stats = tracemalloc.take_snapshot().statistics("filename")
        probes.append((heap, sum(s.count for s in stats), eng.memory_stats()))

    eng.schedule(0.0, probe, 0.0)
    eng.schedule(1_650.0, probe, 1_650.0)
    tracemalloc.start()
    try:
        net.run_synthetic(UniformRandom(topo.num_nodes), load=1.0,
                          warmup_ns=200.0, measure_ns=1_500.0, seed=2)
    finally:
        tracemalloc.stop()
    (heap0, blocks0, _), (heap1, blocks1, mem) = probes
    slots = mem["slots_allocated"]
    assert slots > 5_000, mem  # the network is full
    assert mem["slot_bytes"] <= 88, mem
    assert slots <= mem["slot_capacity"], mem
    assert mem["spilled_routes_hwm"] == 0, mem
    assert heap1 - heap0 <= slots * mem["slot_bytes"] + SATURATED_ALLOWANCE, (
        heap1 - heap0, mem)
    assert blocks1 - blocks0 < slots, (blocks1 - blocks0, mem)


def test_gc_referents_do_not_grow_with_the_traffic():
    # Queue entries and packet slots are plain C data: the kernel shows
    # the collector the same referents with packets in flight and
    # messages queued as when idle.
    topo = SlimFly(5)
    net = Network(topo, UGALRouting(topo, seed=0), SimConfig(backend="kernel"))
    kernel = net._vec.kernel
    idle = len(gc.get_referents(kernel))
    n = topo.num_nodes
    for node in range(n):
        for i in range(3):
            net.nics[node].submit((node + 7 + i) % n, 256 * 12, 10_000 + i)
    net.engine.run(max_events=3_000)
    mem = net.engine.memory_stats()
    assert mem["slots_live"] > 1_000 and mem["nic_backlog"] > n, mem
    assert len(gc.get_referents(kernel)) == idle


def test_spilled_routes_are_freed(looping_routing):
    # Every looping route spills out of its slot.  The spill blocks go
    # with the delivered packets, with clear() while the packets are in
    # flight, and with a kernel freed while they are: a leak on the
    # last path alone would be ~3,000 blocks of 40 B.
    topo = SlimFly(5)
    routing = looping_routing(topo)
    rng_state = routing.inner._rng.getstate()
    pattern = UniformRandom(topo.num_nodes)

    def run(drain=False):
        routing.inner._rng.setstate(rng_state)
        net = Network(topo, routing, SimConfig(backend="kernel"))
        net.run_synthetic(pattern, load=0.6, warmup_ns=200.0,
                          measure_ns=600.0, seed=7, drain=drain)
        return net, net.engine.memory_stats()

    net, mem = run(drain=True)  # also fills the route cache
    assert mem["spilled_routes_hwm"] > 1_000, mem
    check_bounded(net)
    del net
    tracemalloc.start()
    try:
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        net, mem = run()
        assert mem["spilled_routes"] > 1_000, mem
        net.engine.clear()
        mem = net.engine.memory_stats()
        assert mem["slots_live"] == mem["spilled_routes"] == 0, mem
        net, mem = run()
        assert mem["spilled_routes"] > 1_000, mem
        del net
        gc.collect()
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert after - before <= SLACK_BYTES, (
        f"traced heap grew by {after - before} bytes")


def _sparse_run(entries: int):
    """Run streams of about *entries* entries per node; returns the
    kernel's memory stats at time 0, mid-run and at the end, and how
    much the traced heap grew from before the run to mid-run."""
    gc.collect()
    before = tracemalloc.get_traced_memory()[0]
    topo = SlimFly(5)
    net = Network(topo, MinimalRouting(topo, seed=1),
                  SimConfig(backend="kernel"))
    eng = net.engine
    measure = entries * MEAN_IA
    mid = (200.0 + measure) / 2
    probes = {}

    def probe(t):
        probes[t] = (eng.memory_stats(), tracemalloc.get_traced_memory()[0])

    eng.schedule(0.0, probe, 0.0)
    eng.schedule(mid, probe, mid)
    net.run_synthetic(sparse_permutation(topo.num_nodes), load=LONG_LOAD,
                      warmup_ns=200.0, measure_ns=measure, seed=5)
    end = eng.memory_stats()
    eng.clear()
    assert eng.memory_stats()["gen_states"] == 0
    return probes[0.0][0], probes[mid][0], end, probes[mid][1] - before


def test_generator_memory_is_bounded_by_the_chunk_not_the_horizon():
    # A stream that fits one chunk holds no generator state even at
    # time 0.  Longer ones hold one state per node while they draw and
    # refill a chunk of gen_chunk_cap entries, so the traced heap in
    # mid-run does not grow with the horizon (drawn whole, 1,100
    # entries a node would be 2 MB here); no state outlives its stream.
    n = SlimFly(5).num_nodes
    start, mid, end, _ = _sparse_run(30)
    assert start["gen_states"] == mid["gen_states"] == end["gen_states"] == 0
    assert end["gen_refills"] == 0
    assert end["gen_chunk_max"] < end["gen_chunk_cap"]

    tracemalloc.start()
    try:
        runs = {entries: _sparse_run(entries) for entries in (300, 1_100)}
    finally:
        tracemalloc.stop()
    for entries, (start, mid, end, _) in runs.items():
        cap = end["gen_chunk_cap"]
        assert start["gen_states"] == mid["gen_states"] == n
        assert 0 < mid["gen_state_bytes"] // n < 2_600
        assert end["gen_states"] == 0
        assert end["gen_chunk_max"] == cap
        assert end["gen_refills"] >= (entries // cap) * n
    assert runs[300][1]["gen_state_bytes"] == runs[1_100][1]["gen_state_bytes"]
    assert runs[1_100][3] - runs[300][3] < 64 * 1024, (
        runs[300][3], runs[1_100][3])
