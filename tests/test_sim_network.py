"""Integration tests of the network simulator (Sec. 4.1 substrate).

These exercise full packet lifecycles: conservation, latency floors,
throughput ceilings, backpressure, VC provisioning and the congestion
interface used by UGAL-L.
"""

import numpy as np
import pytest

from repro.routing import (
    NULL_CONGESTION,
    IndirectRandomRouting,
    MinimalRouting,
    Route,
    RoutingAlgorithm,
    UGALRouting,
)
from repro.sim import Network, PAPER_CONFIG, SimConfig
from repro.sim.vec.kernel import load_kernel
from repro.topology import MLFM, OFT, SlimFly
from repro.traffic import ShiftTraffic, UniformRandom


@pytest.fixture(scope="module")
def sf4():
    return SlimFly(4)


class TestWiring:
    def test_vc_count_follows_routing(self, sf4):
        assert Network(sf4, MinimalRouting(sf4)).num_vcs == 2
        assert Network(sf4, IndirectRandomRouting(sf4)).num_vcs == 4

    def test_router_and_nic_counts(self, sf4):
        net = Network(sf4, MinimalRouting(sf4))
        assert len(net.routers) == sf4.num_routers
        assert len(net.nics) == sf4.num_nodes

    def test_output_ports_cover_neighbors_and_nodes(self, sf4):
        net = Network(sf4, MinimalRouting(sf4))
        for r in range(sf4.num_routers):
            assert len(net.routers[r].out) == sf4.degree(r) + sf4.nodes_attached(r)

    def test_congestion_interface(self, sf4):
        net = Network(sf4, MinimalRouting(sf4))
        n = sf4.neighbors(0)[0]
        assert net.queue_len(0, n) == 0
        assert net.queue_capacity() == PAPER_CONFIG.buffer_packets_per_port


class TestConservation:
    @pytest.mark.parametrize("load", [0.3, 0.8])
    def test_every_packet_delivered_once(self, sf4, load):
        net = Network(sf4, MinimalRouting(sf4, seed=1))
        net.run_synthetic(
            UniformRandom(sf4.num_nodes), load=load,
            warmup_ns=500, measure_ns=2000, seed=7, drain=True,
        )
        assert net.stats.injected_total == net.stats.ejected_total
        assert net.stats.injected_total > 0

    def test_conservation_under_indirect(self, sf4):
        net = Network(sf4, IndirectRandomRouting(sf4, seed=1))
        net.run_synthetic(
            UniformRandom(sf4.num_nodes), load=0.4,
            warmup_ns=500, measure_ns=2000, seed=7, drain=True,
        )
        assert net.stats.injected_total == net.stats.ejected_total

    def test_conservation_mlfm_ugal(self, mlfm4):
        net = Network(mlfm4, UGALRouting(mlfm4, seed=1))
        net.run_synthetic(
            UniformRandom(mlfm4.num_nodes), load=0.6,
            warmup_ns=500, measure_ns=2000, seed=7, drain=True,
        )
        assert net.stats.injected_total == net.stats.ejected_total


class TestLatency:
    def test_latency_at_least_zero_load(self, sf4):
        net = Network(sf4, MinimalRouting(sf4, seed=1))
        stats = net.run_synthetic(
            UniformRandom(sf4.num_nodes), load=0.05,
            warmup_ns=500, measure_ns=3000, seed=7,
        )
        floor = PAPER_CONFIG.zero_load_latency_ns(1)  # >= 1-hop minimum
        assert stats.mean_latency_ns is not None
        assert stats.mean_latency_ns >= floor * 0.99

    def test_latency_increases_with_load(self, sf4):
        lats = []
        for load in (0.1, 0.9):
            net = Network(sf4, MinimalRouting(sf4, seed=1))
            stats = net.run_synthetic(
                UniformRandom(sf4.num_nodes), load=load,
                warmup_ns=500, measure_ns=3000, seed=7,
            )
            lats.append(stats.mean_latency_ns)
        assert lats[1] > lats[0]

    def test_intra_router_latency_has_no_network_hops(self, sf4):
        # Shift by 1 within a router (p = 6 for q = 4): one router
        # traversal only.
        assert sf4.p >= 2
        net = Network(sf4, MinimalRouting(sf4, seed=1))
        stats = net.run_synthetic(
            ShiftTraffic(sf4.num_nodes, 1), load=0.1,
            warmup_ns=500, measure_ns=2000, seed=7,
        )
        # Many destinations are on the same router; mean latency must
        # sit well below the 2-hop zero-load latency.
        assert stats.mean_latency_ns < PAPER_CONFIG.zero_load_latency_ns(2)


class TestThroughput:
    def test_throughput_matches_offered_below_saturation(self, sf4):
        net = Network(sf4, MinimalRouting(sf4, seed=1))
        stats = net.run_synthetic(
            UniformRandom(sf4.num_nodes), load=0.4,
            warmup_ns=1000, measure_ns=4000, seed=7,
        )
        assert stats.throughput == pytest.approx(0.4, rel=0.08)

    def test_throughput_never_exceeds_one(self, sf4):
        net = Network(sf4, MinimalRouting(sf4, seed=1))
        stats = net.run_synthetic(
            UniformRandom(sf4.num_nodes), load=1.0,
            warmup_ns=1000, measure_ns=4000, seed=7,
        )
        assert stats.throughput <= 1.0

    def test_deterministic_arrival_process(self, sf4):
        net = Network(sf4, MinimalRouting(sf4, seed=1))
        stats = net.run_synthetic(
            UniformRandom(sf4.num_nodes), load=0.5,
            warmup_ns=1000, measure_ns=3000, seed=7, arrival="deterministic",
        )
        assert stats.throughput == pytest.approx(0.5, rel=0.08)

    def test_rejects_bad_load(self, sf4):
        net = Network(sf4, MinimalRouting(sf4))
        with pytest.raises(ValueError):
            net.run_synthetic(UniformRandom(sf4.num_nodes), load=0.0)
        with pytest.raises(ValueError):
            net.run_synthetic(UniformRandom(sf4.num_nodes), load=1.5)

    def test_rejects_bad_arrival(self, sf4):
        net = Network(sf4, MinimalRouting(sf4))
        with pytest.raises(ValueError):
            net.run_synthetic(UniformRandom(sf4.num_nodes), load=0.5, arrival="bursty")


BACKENDS = [
    "object",
    pytest.param("kernel", marks=pytest.mark.skipif(
        load_kernel() is None, reason="compiled kernel unavailable")),
]


class FixedFromNodeZero:
    """Node 0 sends every packet to *dst*; every other node stays idle."""

    def __init__(self, dst):
        self.dst = dst

    def pick_destination(self, src, rng):
        return self.dst if src == 0 else None


@pytest.mark.parametrize("backend", BACKENDS)
class TestSelfTrafficGuard:
    def test_pattern_self_destination_rejected(self, sf4, backend):
        class Bad:
            def pick_destination(self, src, rng):
                return src

        net = Network(sf4, MinimalRouting(sf4), SimConfig(backend=backend))
        with pytest.raises(ValueError, match="to itself"):
            net.run_synthetic(Bad(), load=0.5, warmup_ns=100, measure_ns=500)

    @pytest.mark.parametrize("dst", [-1, "N", 0])
    def test_destination_outside_the_network_rejected(self, sf4, backend, dst):
        # -1 used to reach the last node on the object engine (negative
        # indexing) and read as "idle" on the kernel; N, the source node
        # and -1 are all errors on both engines now.
        n = sf4.num_nodes
        dst = n if dst == "N" else dst
        net = Network(sf4, MinimalRouting(sf4), SimConfig(backend=backend))
        with pytest.raises(ValueError, match=f"node {dst}"):
            net.run_synthetic(FixedFromNodeZero(dst), load=0.5,
                              warmup_ns=100, measure_ns=500)
        assert net.stats.injected_total == 0

    @pytest.mark.parametrize("dst", [-1, "N"])
    def test_submit_outside_the_network_raises_index_error(
        self, sf4, backend, dst
    ):
        n = sf4.num_nodes
        dst = n if dst == "N" else dst
        net = Network(sf4, MinimalRouting(sf4), SimConfig(backend=backend))
        with pytest.raises(IndexError, match=rf"out of range \[0, {n}\)"):
            net.nics[0].submit(dst, 256)
        net.engine.run()
        assert net.stats.injected_total == 0

    def test_exchange_outside_the_network_rejected(self, sf4, backend):
        class Stray:
            def node_messages(self, node):
                return [(-1, 256)] if node == 0 else []

        net = Network(sf4, MinimalRouting(sf4), SimConfig(backend=backend))
        with pytest.raises(ValueError, match="outside"):
            net.run_exchange(Stray())


class NewKindEachRoute(RoutingAlgorithm):
    """Minimal routes, each labelled with a route kind of its own."""

    def __init__(self, topo):
        self.inner = MinimalRouting(topo, seed=0)
        self.routes = 0

    @property
    def num_vcs(self):
        return self.inner.num_vcs

    def route(self, src_router, dst_router, congestion=NULL_CONGESTION):
        r = self.inner.route(src_router, dst_router, congestion)
        self.routes += 1
        return Route(r.routers, r.vcs, f"kind-{self.routes}")


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_kind_past_the_capacity_is_refused(sf4, backend):
    # Both engines count a route kind by its index in the collector's
    # vocabulary, which holds as many kinds as kind_totals has entries:
    # the one past them is the collector's error on either engine (the
    # kernel interns a kind as it loads the route, the object engine as
    # it counts the delivery).
    net = Network(sf4, NewKindEachRoute(sf4), SimConfig(backend=backend))
    assert net.backend_in_use == backend
    cap = len(net.stats.kind_totals)
    with pytest.raises(ValueError, match=f"past the {cap} a collector counts"):
        net.run_synthetic(UniformRandom(sf4.num_nodes), load=0.5,
                          warmup_ns=0.0, measure_ns=2_000.0, seed=1)
    names = net.stats.kind_names
    assert len(names) == len(set(names)) == cap
    assert names[:2] == ["minimal", "indirect"]


@pytest.mark.parametrize("backend", BACKENDS)
class TestSizeGuard:
    @pytest.mark.parametrize("size", [0, -256])
    @pytest.mark.parametrize("method", ["submit"])
    def test_send_below_one_byte_rejected(self, sf4, backend, size, method):
        # A -256 B packet used to be queued and reported as negative
        # throughput.  Both engines raise one shared message (the
        # kernel's C formats the text of repro.sim.nic.bad_size).
        from repro.sim.nic import bad_size

        net = Network(sf4, MinimalRouting(sf4), SimConfig(backend=backend))
        with pytest.raises(ValueError) as err:
            getattr(net.nics[0], method)(3, size)
        assert str(err.value) == str(bad_size(size))
        net.engine.run()
        assert net.stats.injected_total == 0

    def test_submit_message_splits_into_packets(self, sf4, backend):
        net = Network(sf4, MinimalRouting(sf4), SimConfig(backend=backend))
        sizes = []
        net.add_delivery_listener(lambda pkt: sizes.append((pkt.size, pkt.msg_id)))
        net.nics[0].submit(3, 700, 9)
        net.engine.run()
        assert sizes == [(256, 9), (256, 9), (188, 9)]

    def test_exchange_negative_size_rejected(self, sf4, backend):
        # It used to fail as "exchange incomplete: 8/4 packets delivered
        # (possible deadlock ...)", the wrong diagnosis.
        class Negative:
            def node_messages(self, node):
                return [(3, -256), (5, 1024)] if node == 0 else []

        net = Network(sf4, MinimalRouting(sf4), SimConfig(backend=backend))
        with pytest.raises(ValueError, match="-256 bytes to node 3"):
            net.run_exchange(Negative())


def submit_outcome(topo, backend: str, *args):
    """What ``nics[0].submit(*args)`` does on *backend*: the exception it
    raises, as its type and text, or the ``(dst_node, size, msg_id,
    type of msg_id)`` of every packet a delivery listener then sees."""
    net = Network(topo, MinimalRouting(topo), SimConfig(backend=backend))
    assert net.backend_in_use == backend
    pkts = []
    net.add_delivery_listener(pkts.append)
    try:
        net.nics[0].submit(*args)
    except (TypeError, ValueError, IndexError) as exc:
        return type(exc), str(exc)
    # Bounded: an accepted size of 2**63 bytes would never finish.
    net.engine.run(max_events=100_000)
    return [(p.dst_node, p.size, p.msg_id, type(p.msg_id)) for p in pkts]


@pytest.mark.skipif(load_kernel() is None, reason="compiled kernel unavailable")
class TestSubmitArguments:
    """``submit`` takes its arguments by one rule on both engines: every
    integer argument goes through ``operator.index`` (the kernel's
    ``PyLong_As*``), and a message id is ``None`` or in ``[0, 2**63)``."""

    @pytest.mark.parametrize("msg_id", ["1", -1, 2**63, 1.0])
    def test_both_engines_refuse_the_same_message_ids(self, sf4, msg_id):
        ref = submit_outcome(sf4, "object", 3, 256, msg_id)
        assert ref[0] in (TypeError, ValueError), ref
        assert submit_outcome(sf4, "kernel", 3, 256, msg_id) == ref

    def test_both_engines_accept_the_same_message_ids(self, sf4):
        # Numpy integers reach the listeners as plain ints.
        for msg_id in (None, 0, 2**63 - 1, np.int64(7)):
            mid = None if msg_id is None else int(msg_id)
            sent = [(3, 256, mid, type(mid)), (3, 44, mid, type(mid))]
            for dst, size in ((3, 300), (np.int32(3), np.int64(300))):
                ref = submit_outcome(sf4, "object", dst, size, msg_id)
                assert ref == sent
                assert submit_outcome(sf4, "kernel", dst, size, msg_id) == ref

    @pytest.mark.parametrize("args, expect", [
        ((3, 256.5), TypeError), ((3, 256.0), TypeError),
        ((3.0, 256), TypeError), ((True, 256), [(1, 256, None, type(None))]),
        ((2**70, 256), IndexError), ((-2**70, 256), IndexError),
        ((3, 2**63), ValueError), ((3, 2**70), ValueError),
    ], ids=["float-size", "integral-float-size", "float-dst", "bool-dst",
            "huge-dst", "huge-negative-dst", "size-2**63", "huge-size"])
    def test_both_engines_take_the_same_arguments(self, sf4, args, expect):
        # A float is refused at submit, not cut into a 256 B and a 0.5 B
        # packet or left to fail at delivery, and a bool is the node it
        # indexes.  An integer too large for C is refused with the error
        # of any other out-of-range value.
        ref = submit_outcome(sf4, "object", *args)
        if isinstance(expect, list):
            assert ref == expect
        else:
            assert ref[0] is expect, ref
        assert submit_outcome(sf4, "kernel", *args) == ref


@pytest.mark.parametrize("backend", BACKENDS)
class TestMessageQueue:
    """Every driver's traffic enters a NIC as messages, one queue entry
    each, that the NIC cuts into ``packet_bytes`` packets."""

    def test_oversized_submit_is_cut_into_packets(self, sf4, backend):
        # It used to leave as one 1,024 B packet serialised in the time
        # of one 256 B packet.
        net = Network(sf4, MinimalRouting(sf4), SimConfig(backend=backend))
        pkts = []
        net.add_delivery_listener(pkts.append)
        net.nics[0].submit(40, 1024)
        net.nics[0].submit(40, 256)
        net.engine.run()
        ser = net.config.packet_time_ns
        assert [p.size for p in pkts] == [256] * 5
        assert [p.send_time for p in pkts] == [i * ser for i in range(5)]

    def test_exchange_packets_carry_the_post_time(self, sf4, backend):
        from repro.traffic import AllToAll, NearestNeighbor3D

        for exchange in (AllToAll(sf4.num_nodes, message_bytes=600),
                         NearestNeighbor3D(sf4.num_nodes, message_bytes=600)):
            net = Network(sf4, MinimalRouting(sf4, seed=1),
                          SimConfig(backend=backend))
            pkts = []
            net.add_delivery_listener(pkts.append)
            net.run_exchange(exchange)
            assert {p.gen_time for p in pkts} == {0.0}
            assert max(p.send_time for p in pkts) > 0.0

    def test_backlog_holds_one_entry_per_message(self, sf4, backend):
        net = Network(sf4, MinimalRouting(sf4), SimConfig(backend=backend))
        nic = net.nics[0]

        def backlog():
            if backend == "object":
                return sum(len(n.queue) for n in net.nics)
            return net.engine.memory_stats()["nic_backlog"]

        nic.submit(3, 1024, 0)  # its first packet leaves at once
        nic.submit(5, 1024, 1)
        nic.submit(7, 700, 2, interleave=True)
        assert backlog() == 3
        assert nic.queued_packets == 3 + 4 + 3
        net.engine.run()
        assert backlog() == nic.queued_packets == 0
        assert net.stats.ejected_total == 11


class TestExchanges:
    def test_small_exchange_completes(self, mlfm4):
        from repro.traffic import AllToAll

        net = Network(mlfm4, MinimalRouting(mlfm4, seed=1))
        res = net.run_exchange(AllToAll(mlfm4.num_nodes, message_bytes=256))
        assert res["packets"] == mlfm4.num_nodes * (mlfm4.num_nodes - 1)
        assert 0 < res["effective_throughput"] <= 1.0

    def test_exchange_with_no_traffic_rejected(self, mlfm4):
        class Empty:
            def node_messages(self, node):
                return []

        net = Network(mlfm4, MinimalRouting(mlfm4))
        with pytest.raises(ValueError):
            net.run_exchange(Empty())

    def test_event_budget_detects_incompleteness(self, mlfm4):
        from repro.traffic import AllToAll

        net = Network(mlfm4, MinimalRouting(mlfm4, seed=1))
        with pytest.raises(RuntimeError):
            net.run_exchange(AllToAll(mlfm4.num_nodes, message_bytes=256), max_events=100)

    def test_interleaved_exchange_completes(self, mlfm4):
        from repro.traffic import NearestNeighbor3D

        nn = NearestNeighbor3D(mlfm4.num_nodes, message_bytes=512, dims=(4, 5, 4))
        net = Network(mlfm4, MinimalRouting(mlfm4, seed=1))
        res = net.run_exchange(nn)
        assert res["total_bytes"] == nn.total_bytes


class TestCustomConfig:
    def test_smaller_packets(self, sf4):
        cfg = SimConfig(packet_bytes=128)
        net = Network(sf4, MinimalRouting(sf4, seed=1), cfg)
        stats = net.run_synthetic(
            UniformRandom(sf4.num_nodes), load=0.5,
            warmup_ns=500, measure_ns=2000, seed=7,
        )
        assert stats.throughput == pytest.approx(0.5, rel=0.1)

    def test_tiny_buffers_still_conserve(self, sf4):
        cfg = SimConfig(buffer_bytes_per_port=1024)  # 4 packets/port
        net = Network(sf4, MinimalRouting(sf4, seed=1), cfg)
        net.run_synthetic(
            UniformRandom(sf4.num_nodes), load=0.8,
            warmup_ns=500, measure_ns=2000, seed=7, drain=True,
        )
        assert net.stats.injected_total == net.stats.ejected_total


class PortlessRouting(RoutingAlgorithm):
    """A custom algorithm: another algorithm's choices, handed over as
    Routes without the hop ports RouteCache precompiles."""

    def __init__(self, inner):
        self.inner = inner

    @property
    def num_vcs(self):
        return self.inner.num_vcs

    def route(self, src_router, dst_router, congestion=NULL_CONGESTION):
        r = self.inner.route(src_router, dst_router, congestion)
        return Route(r.routers, r.vcs, r.kind, r.intermediate)


class TestCustomRouting:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_portless_routes_run_like_cached_ones(self, sf4, backend):
        # make_packet derives the hop ports from the topology (on the
        # kernel, through its make_packet escape): same routes, same run.
        def run(routing):
            net = Network(sf4, routing, SimConfig(backend=backend))
            stats = net.run_synthetic(UniformRandom(sf4.num_nodes), load=0.6,
                                      warmup_ns=200, measure_ns=600, seed=3)
            return {name: getattr(stats, name) for name in stats.__slots__}

        assert (run(PortlessRouting(UGALRouting(sf4, seed=2)))
                == run(UGALRouting(sf4, seed=2)))


class TestSingleUse:
    def test_second_run_rejected(self, sf4):
        net = Network(sf4, MinimalRouting(sf4, seed=1))
        net.run_synthetic(UniformRandom(sf4.num_nodes), load=0.2,
                          warmup_ns=200, measure_ns=600, seed=3)
        with pytest.raises(RuntimeError):
            net.run_synthetic(UniformRandom(sf4.num_nodes), load=0.2,
                              warmup_ns=200, measure_ns=600, seed=3)

    def test_exchange_after_synthetic_rejected(self, sf4):
        from repro.traffic import AllToAll

        net = Network(sf4, MinimalRouting(sf4, seed=1))
        net.run_synthetic(UniformRandom(sf4.num_nodes), load=0.2,
                          warmup_ns=200, measure_ns=600, seed=3)
        with pytest.raises(RuntimeError):
            net.run_exchange(AllToAll(sf4.num_nodes, message_bytes=256))


class OneSender:
    """An exchange in which the last node sends *messages* and every
    other node sends nothing."""

    def __init__(self, num_nodes, messages, interleave):
        self.num_nodes = num_nodes
        self.messages = messages
        self.interleave = interleave

    def node_messages(self, node):
        return self.messages if node == self.num_nodes - 1 else []


class TestPacketize:
    """How an exchange's messages leave one NIC as packets."""

    @staticmethod
    def _run(fn, messages, pkt):
        """``(dst, size, msg_id)`` of every packet *messages* send from
        one NIC through ``run_exchange``, in send order (the same on
        both engines)."""
        topo = SlimFly(4)
        exchange = OneSender(topo.num_nodes, messages, fn == "interleaved")
        sent = {}
        for backend in ("object",) + (("kernel",) if load_kernel() else ()):
            net = Network(topo, MinimalRouting(topo, seed=1),
                          SimConfig(packet_bytes=pkt, backend=backend))
            pkts = []
            net.add_delivery_listener(pkts.append)
            if not any(size for _, size in messages):
                with pytest.raises(ValueError, match="no traffic"):
                    net.run_exchange(exchange)
            else:
                net.run_exchange(exchange)
            sent[backend] = [(p.dst_node, p.size, p.msg_id)
                             for p in sorted(pkts, key=lambda p: p.pid)]
        assert len(set(map(tuple, sent.values()))) == 1, sent
        return sent["object"]

    @pytest.mark.parametrize("fn", ["ordered", "interleaved"])
    def test_chunks_reassemble_to_message_sizes(self, fn):
        messages = [(3, 1000), (7, 256), (9, 257)]
        pkts = self._run(fn, messages, 256)
        totals = {}
        for dst, chunk, msg_id in pkts:
            assert 0 < chunk <= 256
            assert dst == messages[msg_id][0]
            totals[msg_id] = totals.get(msg_id, 0) + chunk
        assert totals == {0: 1000, 1: 256, 2: 257}

    @pytest.mark.parametrize("fn", ["ordered", "interleaved"])
    def test_remainder_is_final_chunk(self, fn):
        # 1000 = 3*256 + 232: exactly one short tail packet.
        pkts = [c for _, c, m in self._run(fn, [(0, 1000)], 256)]
        assert sorted(pkts, reverse=True) == [256, 256, 256, 232]
        assert pkts[-1] == 232

    @pytest.mark.parametrize("fn", ["ordered", "interleaved"])
    def test_exact_multiple_has_no_tail(self, fn):
        pkts = self._run(fn, [(1, 512)], 256)
        assert [c for _, c, _ in pkts] == [256, 256]

    @pytest.mark.parametrize("fn", ["ordered", "interleaved"])
    def test_zero_size_message_emits_nothing_but_keeps_ids_stable(self, fn):
        # msg 1 has zero bytes; ids of later messages must not shift.
        pkts = self._run(fn, [(4, 256), (5, 0), (6, 256)], 256)
        assert [(d, m) for d, _, m in pkts] == [(4, 0), (6, 2)]

    @pytest.mark.parametrize("fn", ["ordered", "interleaved"])
    def test_empty_message_list(self, fn):
        assert self._run(fn, [], 256) == []

    def test_ordered_is_strictly_sequential(self):
        pkts = self._run("ordered", [(0, 600), (1, 600)], 256)
        assert [m for _, _, m in pkts] == [0, 0, 0, 1, 1, 1]

    def test_interleaved_round_robins_across_messages(self):
        pkts = self._run("interleaved", [(0, 600), (1, 300)], 256)
        # Rounds: (m0, m1), (m0, m1-tail), (m0-tail).
        assert [m for _, _, m in pkts] == [0, 1, 0, 1, 0]
        assert [c for _, c, _ in pkts] == [256, 256, 256, 44, 88]

    def test_interleaved_drops_finished_messages_from_rotation(self):
        pkts = self._run("interleaved", [(0, 256), (1, 1024)], 256)
        assert [m for _, _, m in pkts] == [1 if i else 0 for i in range(5)]

    @pytest.mark.parametrize("fn", ["ordered", "interleaved"])
    def test_single_byte_messages(self, fn):
        pkts = self._run(fn, [(2, 1), (3, 1)], 256)
        assert [(d, c) for d, c, _ in pkts] == [(2, 1), (3, 1)]
