"""Tests for the discrete-event kernel and simulation config."""

import pytest

from repro.sim.config import PAPER_CONFIG, SimConfig
from repro.sim.engine import Engine


class TestEngine:
    def test_runs_in_time_order(self):
        e = Engine()
        log = []
        e.schedule(5.0, log.append, "b")
        e.schedule(1.0, log.append, "a")
        e.schedule(9.0, log.append, "c")
        e.run()
        assert log == ["a", "b", "c"]

    def test_fifo_for_equal_timestamps(self):
        e = Engine()
        log = []
        for tag in ("x", "y", "z"):
            e.schedule(3.0, log.append, tag)
        e.run()
        assert log == ["x", "y", "z"]

    def test_clock_advances(self):
        e = Engine()
        seen = []
        e.schedule(2.5, lambda: seen.append(e.now))
        e.schedule(7.5, lambda: seen.append(e.now))
        e.run()
        assert seen == [2.5, 10.0 - 2.5]

    def test_until_bound(self):
        e = Engine()
        log = []
        e.schedule(1.0, log.append, 1)
        e.schedule(10.0, log.append, 2)
        e.run(until=5.0)
        assert log == [1]
        assert e.now == 5.0
        assert e.pending == 1

    def test_until_then_continue(self):
        e = Engine()
        log = []
        e.schedule(1.0, log.append, 1)
        e.schedule(10.0, log.append, 2)
        e.run(until=5.0)
        e.run()
        assert log == [1, 2]

    def test_max_events(self):
        e = Engine()
        log = []
        for i in range(10):
            e.schedule(float(i), log.append, i)
        e.run(max_events=3)
        assert log == [0, 1, 2]

    def test_events_from_events(self):
        e = Engine()
        log = []

        def chain(n):
            log.append(n)
            if n < 4:
                e.schedule(1.0, chain, n + 1)

        e.schedule(0.0, chain, 0)
        e.run()
        assert log == [0, 1, 2, 3, 4]

    def test_schedule_at(self):
        e = Engine()
        seen = []
        e.schedule_at(12.0, lambda: seen.append(e.now))
        e.run()
        assert seen == [12.0]

    def test_events_executed_counter(self):
        e = Engine()
        for _ in range(5):
            e.schedule(1.0, lambda: None)
        e.run()
        assert e.events_executed == 5

    def test_schedule_at_in_the_past_raises(self):
        e = Engine()
        e.schedule(5.0, lambda: None)
        e.run()
        assert e.now == 5.0
        with pytest.raises(ValueError, match=r"in the past"):
            e.schedule_at(4.0, lambda: None)
        e.schedule_at(5.0, lambda: None)  # when == now is allowed


class TestSimConfig:
    def test_paper_defaults(self):
        c = PAPER_CONFIG
        assert c.link_bandwidth_gbps == 100.0
        assert c.link_latency_ns == 50.0
        assert c.switch_latency_ns == 100.0
        assert c.buffer_bytes_per_port == 100_000
        assert c.packet_bytes == 256

    def test_packet_time(self):
        assert PAPER_CONFIG.packet_time_ns == pytest.approx(20.48)

    def test_buffer_packets(self):
        assert PAPER_CONFIG.buffer_packets_per_port == 390
        assert PAPER_CONFIG.buffer_packets_per_vc(2) == 195
        assert PAPER_CONFIG.buffer_packets_per_vc(4) == 97

    def test_buffer_at_least_one_packet(self):
        assert PAPER_CONFIG.buffer_packets_per_vc(10_000) == 1

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            SimConfig(link_bandwidth_gbps=0)
        with pytest.raises(ValueError):
            SimConfig(packet_bytes=0)
        with pytest.raises(ValueError):
            SimConfig(buffer_bytes_per_port=10, packet_bytes=256)
        with pytest.raises(ValueError):
            SimConfig(link_latency_ns=-1)
        with pytest.raises(ValueError):
            PAPER_CONFIG.buffer_packets_per_vc(0)

    def test_zero_load_latency(self):
        c = PAPER_CONFIG
        # 2-hop route: NIC leg + 3 router traversals (incl. ejection leg).
        expected = (20.48 + 50) + 3 * (100 + 20.48 + 50)
        assert c.zero_load_latency_ns(2) == pytest.approx(expected)

    def test_frozen(self):
        with pytest.raises(Exception):
            PAPER_CONFIG.packet_bytes = 512  # type: ignore[misc]
