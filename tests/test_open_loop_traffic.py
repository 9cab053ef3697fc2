"""Open-loop traffic on both engines: streams drawn in C, the generate
events of patterns without a table entry, and latency accounting.

The kernel draws a node's stream in C when its pattern's
``pick_destination`` is one of the three it has a table entry for
(permutations, uniform, hotspot), chunk by chunk as its GEN events
consume it; any other pattern runs the object engine's own generate
events (``Network._generate``) as scheduled calls.  Both must reproduce
the object engine's generate events, and a bad destination must raise
at the same simulated time on both engines.  The kernel hands
latencies to the collector in fixed blocks, which must give the same
window statistics as the object engine's recording them one by one.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.routing import UGALRouting
from repro.sim import Network, SimConfig
from repro.sim.vec.kernel import _pattern_entry, load_kernel
from repro.topology import SlimFly
from repro.traffic import HotspotTraffic, PermutationTraffic, UniformRandom

pytestmark = pytest.mark.skipif(
    load_kernel() is None,
    reason="compiled kernel unavailable (no compiler or REPRO_NO_KERNEL set)",
)

PACKET_NS = 20.48


@pytest.fixture(scope="module")
def sf4():
    return SlimFly(4)


def run(topo, backend, pattern, *, load, measure_ns, arrival="poisson",
        listener=True):
    """WindowStats fields, delivery digest and the network of one run."""
    net = Network(topo, UGALRouting(topo, seed=2), SimConfig(backend=backend))
    digest = hashlib.sha256()
    if listener:
        net.add_delivery_listener(
            lambda p: digest.update(
                f"{p.pid}:{p.src_node}:{p.dst_node}:{p.kind}:"
                f"{p.eject_time!r};".encode()))
    stats = net.run_synthetic(pattern, load=load, warmup_ns=200.0,
                              measure_ns=measure_ns, arrival=arrival,
                              seed=11, drain=True)
    fields = {name: getattr(stats, name) for name in stats.__slots__}
    return fields, digest.hexdigest() if listener else None, net


class Delegating:
    """Draws exactly like *inner*, through a pick_destination the kernel
    has no table entry for."""

    def __init__(self, inner):
        self.inner = inner

    def pick_destination(self, src, rng):
        return self.inner.pick_destination(src, rng)


class SometimesIdle:
    """A custom pattern: draws from *rng* and sends nothing one time in
    four."""

    def __init__(self, num_nodes):
        self.num_nodes = num_nodes

    def pick_destination(self, src, rng):
        if rng.random() < 0.25:
            return None
        return (src + 1 + rng.randrange(self.num_nodes - 1)) % self.num_nodes


def sparse_permutation(num_nodes):
    dsts = [-1] * num_nodes
    dsts[0], dsts[5], dsts[40] = 17, 90, 3
    return PermutationTraffic(dsts)


class CountingGenerates(SometimesIdle):
    """``SometimesIdle`` that counts its draws: one per generate event
    before the horizon."""

    def __init__(self, num_nodes):
        super().__init__(num_nodes)
        self.draws = 0

    def pick_destination(self, src, rng):
        self.draws += 1
        return super().pick_destination(src, rng)


@pytest.mark.parametrize("arrival", ["poisson", "deterministic"])
def test_untabled_pattern_matches_across_engines(sf4, arrival):
    patterns = [CountingGenerates(sf4.num_nodes) for _ in range(2)]
    assert _pattern_entry(patterns[0], sf4.num_nodes) is None
    ref = run(sf4, "object", patterns[0], load=0.5, measure_ns=800.0,
              arrival=arrival)
    got = run(sf4, "kernel", patterns[1], load=0.5, measure_ns=800.0,
              arrival=arrival)
    assert got[:2] == ref[:2]
    # The object engine's generate events, one CALL each: a draw per
    # event before the horizon plus every node's idle last one, and the
    # warm-up's reset_utilization.  No GEN, no generator state.
    kstats = got[2].engine.kernel_stats()
    ops = kstats["op_counts"]
    assert patterns[0].draws == patterns[1].draws > 0
    assert ops["CALL"] == patterns[0].draws + sf4.num_nodes + 1
    assert ops["GEN"] == 0
    mem = got[2].engine.memory_stats()
    assert mem["gen_refills"] == 0 and mem["gen_states"] == 0
    # A CALL costs no flush: the kernel hands its latencies over only
    # when its 4,096-entry block fills and when a run returns with some
    # in the block -- the run to the horizon, not the drain after it,
    # whose deliveries all fall past the window.
    assert kstats["runs"] == 2
    n = got[0]["ejected_packets"]
    assert kstats["escapes"]["stats_flush"]["count"] == (n - 1) // 4096 + 1


class BadAtDraw:
    """Draws like ``UniformRandom``, through a pick_destination the
    kernel has no table entry for, but returns the source itself at
    the *n*-th draw over all nodes."""

    def __init__(self, num_nodes, n):
        self.inner = UniformRandom(num_nodes)
        self.n = n
        self.draws = 0

    def pick_destination(self, src, rng):
        self.draws += 1
        if self.draws == self.n:
            return src
        return self.inner.pick_destination(src, rng)


def test_bad_destination_raises_at_the_same_time_on_both_engines(sf4):
    # The draw raises from its generate event: at the same simulated
    # time on both engines, with the same message, after the same
    # draws.
    def fail(backend):
        net = Network(sf4, UGALRouting(sf4, seed=2), SimConfig(backend=backend))
        pattern = BadAtDraw(sf4.num_nodes, 500)
        with pytest.raises(ValueError) as err:
            net.run_synthetic(pattern, load=0.5, warmup_ns=200.0,
                              measure_ns=800.0, seed=11)
        return net.engine.now, str(err.value), pattern.draws

    ref = fail("object")
    assert ref[0] > 0.0 and ref[2] == 500
    assert fail("kernel") == ref


@pytest.mark.parametrize("arrival", ["poisson", "deterministic"])
def test_long_streams_match_across_engines(sf4, arrival):
    # About 1,100 entries per node, so every stream refills its chunk
    # four times and its MT state several times over; three senders
    # keep the object engine's run short.
    pattern = sparse_permutation(sf4.num_nodes)
    assert _pattern_entry(pattern, sf4.num_nodes) is not None
    measure = 1_100 * PACKET_NS / 0.5
    ref = run(sf4, "object", pattern, load=0.5, measure_ns=measure,
              arrival=arrival)
    got = run(sf4, "kernel", pattern, load=0.5, measure_ns=measure,
              arrival=arrival)
    assert got[:2] == ref[:2]
    assert got[0]["injected_packets"] > 2_000
    mem = got[2].engine.memory_stats()
    assert mem["gen_refills"] >= 4 * sf4.num_nodes
    assert mem["gen_states"] == 0


@pytest.mark.parametrize("make", [
    lambda n: UniformRandom(n),
    lambda n: HotspotTraffic(n, [0, 9], hot_fraction=0.3),
    lambda n: HotspotTraffic(n, [4], hot_fraction=1.0),
], ids=["uniform", "hotspot-0.3", "hotspot-1"])
def test_long_streams_drawn_in_c_match_python_draws(sf4, make):
    # Every node sends, so these stay on the kernel: the same streams
    # drawn in C (chunked) and in Python (whole) run identically.
    pattern = make(sf4.num_nodes)
    measure = 1_000 * PACKET_NS / 0.2
    c = run(sf4, "kernel", pattern, load=0.2, measure_ns=measure)
    py = run(sf4, "kernel", Delegating(pattern), load=0.2, measure_ns=measure)
    assert c[:2] == py[:2]
    assert c[2].engine.memory_stats()["gen_refills"] >= 3 * sf4.num_nodes
    assert py[2].engine.memory_stats()["gen_refills"] == 0


def test_latency_blocks_match_per_packet_recording(sf4):
    # Over 12k in-window deliveries accounted in C and flushed in
    # blocks, against the object engine's per-packet recording: the
    # same latencies in the same order, so the same mean and p99, and
    # the same per-node eject counts.
    pattern = UniformRandom(sf4.num_nodes)
    fast = run(sf4, "kernel", pattern, load=0.9, measure_ns=4_000.0,
               listener=False)
    slow = run(sf4, "object", pattern, load=0.9, measure_ns=4_000.0,
               listener=False)
    assert fast[0] == slow[0]
    assert list(fast[2].stats.latencies) == list(slow[2].stats.latencies)
    assert (fast[2].stats.eject_count_per_node.tolist()
            == slow[2].stats.eject_count_per_node.tolist())
    assert fast[0]["ejected_packets"] > 3 * 4096
    escapes = fast[2].engine.kernel_stats()["escapes"]
    assert escapes["stats_flush"]["count"] >= 3
    assert escapes["deliver"]["count"] == 0
    lat = fast[2].stats.latencies
    assert lat.typecode == "d" and len(lat) == fast[0]["ejected_packets"]
