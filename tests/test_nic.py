"""Unit tests of the NIC model (message queue, credits)."""

import pytest

from repro.routing import MinimalRouting
from repro.sim import Network, SimConfig
from repro.sim.vec.kernel import load_kernel
from repro.topology.base import Topology


def pair(p=1):
    """Two routers, one link, *p* nodes each."""
    return Topology("pair", [[1], [0]], [p, p])


def build(p=1, config=None):
    topo = pair(p)
    net = Network(topo, MinimalRouting(topo, seed=1), config or SimConfig())
    return topo, net


class TestSubmitPath:
    def test_fifo_order(self):
        topo, net = build(p=2)
        # Node 0 sends three packets to nodes 2 and 3 alternating; with
        # a tracer we can observe delivery order = submission order.
        tracer = net.enable_trace()
        nic = net.nics[0]
        for dst in (2, 3, 2):
            nic.submit(dst, 256)
        net.engine.run()
        assert [r.dst_node for r in tracer.records] == [2, 3, 2]

    def test_send_time_spacing_at_link_rate(self):
        topo, net = build()
        tracer = net.enable_trace()
        nic = net.nics[0]
        for _ in range(3):
            nic.submit(1, 256)
        net.engine.run()
        sends = sorted(r.send_time for r in tracer.records)
        ser = net.config.packet_time_ns
        assert sends[1] - sends[0] == pytest.approx(ser)
        assert sends[2] - sends[1] == pytest.approx(ser)

    def test_queued_packets_counter(self):
        topo, net = build()
        nic = net.nics[0]
        for _ in range(5):
            nic.submit(1, 256)
        # One packet starts transmitting immediately; the rest queue.
        assert nic.queued_packets == 4
        net.engine.run()
        assert nic.queued_packets == 0


class TestSourcePull:
    """A message is one queue entry, cut into packets as the NIC sends."""

    def test_source_drained_lazily(self):
        topo, net = build()
        nic = net.nics[0]
        nic.submit(1, 4 * 256, 0)
        # The first packet leaves at once; the other three wait in the
        # message's one entry.
        assert len(nic.queue) == 1
        assert nic.queued_packets == 3
        net.engine.run()
        assert net.stats.ejected_total == 4

    def test_source_exhaustion_clears(self):
        topo, net = build()
        nic = net.nics[0]
        nic.submit(1, 700, 0)
        net.engine.run()
        assert net.stats.ejected_total == 3
        assert not nic.queue
        assert nic.queued_packets == 0

    def test_queue_takes_priority_over_source(self):
        topo, net = build(p=2)
        tracer = net.enable_trace()
        nic = net.nics[0]
        nic.submit(2, 256)
        nic.submit(3, 512, 0, interleave=True)
        net.engine.run()
        # All delivered; the earlier submit first.
        assert [r.dst_node for r in tracer.records] == [2, 3, 3]


class TestCreditExhaustionRetry:
    """Deterministic resume after injection-credit exhaustion.

    When a packet is ready but ``credits <= 0``, the NIC must record the
    stall and re-attempt when the credit returns -- in an order fixed by
    the event set's FIFO tie-breaker, so seeded runs replay
    bit-identically regardless of which engine (the object engine's
    Python routers or the kernel's C route selection) produced the
    routes.
    """

    def test_credit_stall_counter_counts_real_stalls(self):
        cfg = SimConfig(buffer_bytes_per_port=256)  # a single credit
        topo, net = build(config=cfg)
        nic = net.nics[0]
        for _ in range(4):
            nic.submit(1, 256)
        net.engine.run()
        assert net.stats.ejected_total == 4
        assert nic.credit_stalls > 0  # the stall path really ran
        assert nic.credits == 1  # and the credit came back

    def test_no_stalls_with_ample_credits(self):
        topo, net = build()  # paper-sized buffers
        net.nics[0].submit(1, 256)
        net.engine.run()
        assert net.nics[0].credit_stalls == 0

    def test_retry_replays_bit_identically(self):
        def run_once():
            cfg = SimConfig(buffer_bytes_per_port=256)
            topo, net = build(p=2, config=cfg)
            tracer = net.enable_trace()
            for nic in (net.nics[0], net.nics[1]):
                for dst in (2, 3, 2, 3):
                    nic.submit(dst, 256)
            net.engine.run()
            assert any(n.credit_stalls for n in net.nics)
            return [(r.pid, r.send_time, r.eject_time) for r in tracer.records]

        assert run_once() == run_once()

    @pytest.mark.skipif(load_kernel() is None,
                        reason="compiled kernel unavailable")
    def test_retry_order_stable_across_engines(self, sf5):
        # The regression this guards: a credit-starved NIC resuming in a
        # different order depending on the route producer would
        # silently fork the object engine's and the kernel's
        # trajectories.  The tracer keeps per-packet deliveries in
        # Python; the kernel still selects every route in C.
        from repro.traffic import UniformRandom

        def run_once(backend):
            net = Network(sf5, MinimalRouting(sf5, seed=1),
                          SimConfig(buffer_bytes_per_port=512,
                                    backend=backend))
            assert net.backend_in_use == backend
            tracer = net.enable_trace()
            net.run_synthetic(UniformRandom(sf5.num_nodes), load=0.9,
                              warmup_ns=200, measure_ns=800, seed=7,
                              drain=True)
            assert any(n.credit_stalls for n in net.nics)
            return [(r.pid, r.src_node, r.dst_node, r.send_time, r.eject_time)
                    for r in tracer.records]

        assert run_once("object") == run_once("kernel")


class TestCreditBlocking:
    def test_injection_stalls_without_credits(self):
        # Shrink the injection buffer to 2 packets; flood 10 packets at
        # a receiver-limited destination and check the NIC never
        # overruns its credit budget.
        cfg = SimConfig(buffer_bytes_per_port=512)  # 2 packets
        topo, net = build(p=2, config=cfg)
        nic = net.nics[0]
        assert nic.credits == 2
        for _ in range(10):
            nic.submit(2, 256)
        net.engine.run()
        assert net.stats.ejected_total == 10
        assert nic.credits == 2  # all credits returned after drain

    def test_credit_return_resumes(self):
        cfg = SimConfig(buffer_bytes_per_port=256)  # a single packet
        topo, net = build(config=cfg)
        nic = net.nics[0]
        for _ in range(3):
            nic.submit(1, 256)
        net.engine.run()
        assert net.stats.ejected_total == 3
