"""Unit tests for the statistics collector."""

import os
import struct
import subprocess
import sys
from array import array

import numpy as np
import pytest

import repro
from repro.sim.config import PAPER_CONFIG
from repro.sim.packet import Packet
from repro.sim.stats import StatsCollector, percentile99
from repro.sim.vec.kernel import load_kernel


def make_packet(pid, src=0, dst=1, size=256, gen=0.0):
    return Packet(
        pid=pid, src_node=src, dst_node=dst, size=size,
        routers=(0, 1), ports=(0, 0), vcs=(0,), kind="minimal", gen_time=gen,
    )


class TestWindowing:
    def test_only_window_ejections_counted(self):
        sc = StatsCollector(4, PAPER_CONFIG)
        sc.set_window(100.0, 200.0)
        early = make_packet(1)
        early.send_time = 0.0
        early.eject_time = 50.0
        sc.record_inject(early)
        sc.record_eject(early)
        inside = make_packet(2)
        inside.send_time = 110.0
        inside.eject_time = 150.0
        sc.record_inject(inside)
        sc.record_eject(inside)
        late = make_packet(3)
        late.send_time = 210.0
        late.eject_time = 260.0
        sc.record_inject(late)
        sc.record_eject(late)
        assert sc.in_window_ejected == 1
        assert sc.in_window_injected == 1
        assert sc.ejected_total == 3

    def test_throughput_normalisation(self):
        sc = StatsCollector(2, PAPER_CONFIG)
        sc.set_window(0.0, 100.0)
        # Capacity: 2 nodes * 100ns * 12.5 B/ns = 2500 B.
        p = make_packet(1, size=250)
        p.send_time = 1.0
        p.eject_time = 50.0
        sc.record_inject(p)
        sc.record_eject(p)
        stats = sc.window_stats()
        assert stats.throughput == pytest.approx(0.1)

    def test_latency_from_generation(self):
        sc = StatsCollector(2, PAPER_CONFIG)
        sc.set_window(0.0, 100.0)
        p = make_packet(1, gen=10.0)
        p.send_time = 20.0
        p.eject_time = 60.0
        sc.record_inject(p)
        sc.record_eject(p)
        assert sc.window_stats().mean_latency_ns == pytest.approx(50.0)

    def test_unbounded_window_rejected_for_window_stats(self):
        sc = StatsCollector(2, PAPER_CONFIG)
        sc.set_window(0.0, None)
        with pytest.raises(ValueError):
            sc.window_stats()

    def test_kind_counts(self):
        # A kind counts at its index in the vocabulary, seeded "minimal"
        # and "indirect", a new kind appended; kind_counts lists the
        # nonzero totals in vocabulary order.
        sc = StatsCollector(2, PAPER_CONFIG)
        sc.set_window(0.0, 100.0)
        assert sc.kind_counts == {}
        for pid, kind in ((1, "detour"), (2, "minimal"), (3, "indirect"),
                          (4, "minimal")):
            p = make_packet(pid)
            p.kind = kind
            p.send_time = 1.0
            p.eject_time = 10.0
            sc.record_inject(p)
            sc.record_eject(p)
        assert sc.kind_names == ["minimal", "indirect", "detour"]
        assert list(sc.kind_totals[:4]) == [2, 1, 1, 0]
        assert list(sc.window_stats().kind_counts.items()) == [
            ("minimal", 2), ("indirect", 1), ("detour", 1)]


class TestEffectiveThroughput:
    def test_simple_case(self):
        sc = StatsCollector(2, PAPER_CONFIG)
        sc.set_window(0.0, None)
        p = make_packet(1, size=2500)
        p.send_time = 0.0
        p.eject_time = 100.0
        sc.record_inject(p)
        sc.record_eject(p)
        # 2500 B / (100 ns * 2 nodes * 12.5 B/ns) = 1.0.
        assert sc.effective_throughput(2500) == pytest.approx(1.0)

    def test_no_traffic_rejected(self):
        sc = StatsCollector(2, PAPER_CONFIG)
        with pytest.raises(ValueError):
            sc.effective_throughput(100)


class TestPacket:
    def test_num_hops(self):
        p = make_packet(1)
        assert p.num_hops == 1

    def test_repr_smoke(self):
        assert "Packet" in repr(make_packet(1))


class TestFairnessIndex:
    def test_perfectly_even(self):
        sc = StatsCollector(4, PAPER_CONFIG)
        sc.set_window(0.0, 100.0)
        for pid in range(8):
            p = make_packet(pid, dst=pid % 4)
            p.send_time = 1.0
            p.eject_time = 2.0
            sc.record_inject(p)
            sc.record_eject(p)
        assert sc.fairness_index() == pytest.approx(1.0)

    def test_single_receiver(self):
        sc = StatsCollector(4, PAPER_CONFIG)
        sc.set_window(0.0, 100.0)
        for pid in range(8):
            p = make_packet(pid, dst=2)
            p.send_time = 1.0
            p.eject_time = 2.0
            sc.record_inject(p)
            sc.record_eject(p)
        assert sc.fairness_index() == pytest.approx(0.25)

    def test_no_traffic_rejected(self):
        sc = StatsCollector(4, PAPER_CONFIG)
        with pytest.raises(ValueError):
            sc.fairness_index()

    def test_uniform_simulation_fair(self):
        from repro.routing import MinimalRouting
        from repro.sim import Network
        from repro.topology import SlimFly
        from repro.traffic import UniformRandom

        topo = SlimFly(4)
        net = Network(topo, MinimalRouting(topo, seed=1))
        net.run_synthetic(
            UniformRandom(topo.num_nodes), load=0.5,
            warmup_ns=1000, measure_ns=4000, seed=3, drain=True,
        )
        assert net.stats.fairness_index() > 0.95


class TestPercentile99:
    """``percentile99`` against ``np.percentile(values, 99)``, bit for bit."""

    SIZES = list(range(1, 400)) + [1_000, 22_460, 27_231, 100_003]

    @staticmethod
    def _arrays(rng, n):
        yield rng.random(n) * 1_000.0                          # uniform
        yield rng.integers(0, 7, n).astype(np.float64) * 12.5  # ties
        yield rng.exponential(300.0, n)                        # exponential
        yield np.full(n, 431.25)                               # one value
        yield 200.0 + rng.exponential(50.0, n).cumsum() % 977.0

    def test_matches_numpy_percentile(self):
        rng = np.random.default_rng(2015)
        checked = 0
        for n in self.SIZES:
            for values in self._arrays(rng, n):
                want = float(np.percentile(values, 99))
                assert percentile99(values) == want, (n, checked)
                checked += 1
        assert checked == 2_015

    def test_leaves_its_input_alone(self):
        values = np.random.default_rng(3).random(1_000)
        copy = values.copy()
        percentile99(values)
        assert np.array_equal(values, copy)

    def test_window_stats_does_not_import_numpy_ma(self):
        # np.percentile imports numpy.ma on its first call in a process
        # (numpy 2 loads it lazily), which used to cost more than the
        # whole reduction.
        code = (
            "import sys\n"
            "from repro.sim.config import PAPER_CONFIG\n"
            "from repro.sim.stats import StatsCollector\n"
            "before = 'numpy.ma' in sys.modules\n"
            "sc = StatsCollector(2, PAPER_CONFIG)\n"
            "sc.set_window(0.0, 100.0)\n"
            "sc.latencies.extend([3.0, 1.0, 2.0])\n"
            "sc.in_window_ejected = 3\n"
            "assert sc.window_stats().p99_latency_ns == 2.98\n"
            "print(before, 'numpy.ma' in sys.modules)\n"
        )
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True, env=env).stdout
        before, after = out.split()
        assert after == before


@pytest.mark.skipif(load_kernel() is None,
                    reason="compiled kernel unavailable (no compiler or "
                           "REPRO_NO_KERNEL set)")
class TestKernelWindowReduce:
    """The kernel's ``window_reduce`` against ``np.mean(x)`` and
    ``np.percentile(x, 99)``, bit for bit: the kernel engine reduces its
    latency window with it, so a kernel run never imports numpy."""

    # Around each of numpy's pairwise-sum regimes (a plain loop below 8
    # values, 8 accumulators up to 128, halves split at a multiple of 8
    # above) and the halo benchmark's 94,080 latencies.
    LENGTHS = [*range(1, 10), 127, 128, 129, 255, 256, 257,
               8_191, 8_192, 8_193, 94_080]

    @staticmethod
    def _arrays(rng, n):
        yield rng.exponential(300.0, n)                        # exponential
        yield rng.integers(0, 7, n).astype(np.float64) * 12.5  # many ties
        yield np.full(n, 431.25)                               # all equal

    def test_matches_numpy_bit_for_bit(self):
        reduce = load_kernel().window_reduce
        rng = np.random.default_rng(34)
        lengths = self.LENGTHS + rng.integers(1, 300_001, 8).tolist()
        checked = 0
        for n in lengths:
            for values in self._arrays(rng, n):
                latencies = array("d", values.tobytes())
                got = struct.pack("<2d", *reduce(latencies))
                want = struct.pack("<2d", np.mean(values),
                                   np.percentile(values, 99))
                assert got == want, (n, checked)
                assert latencies.tobytes() == values.tobytes()
                checked += 1
        assert checked == 3 * len(lengths)

    def test_refuses_what_it_cannot_reduce(self):
        reduce = load_kernel().window_reduce
        with pytest.raises(ValueError, match="no latencies"):
            reduce(array("d"))
        with pytest.raises(TypeError, match="float64 array"):
            reduce(array("q", [1, 2]))


class TestLatencyStore:
    def test_latencies_are_raw_float64(self):
        sc = StatsCollector(4, PAPER_CONFIG)
        sc.set_window(0.0, 1_000.0)
        pkt = make_packet(1, gen=10.0)
        pkt.eject_time = 110.5
        sc.record_eject(pkt)
        # The kernel hands over latencies only; every counter, the
        # per-kind totals included, it writes in place.
        sc.absorb_kernel(array("d", [7.25, 8.5]).tobytes())
        assert isinstance(sc.latencies, array) and sc.latencies.typecode == "d"
        assert list(sc.latencies) == [100.5, 7.25, 8.5]
        assert sc.kind_counts == {"minimal": 1}
        assert (sc.ejected_total, sc.in_window_ejected) == (1, 1)
        assert sc.window_stats().mean_latency_ns == float(
            np.mean([100.5, 7.25, 8.5]))
        # Per-node eject counts are the kernel's to write in place:
        # absorb_kernel leaves them.
        assert sc.eject_count_per_node.tolist() == [0, 1, 0, 0]
