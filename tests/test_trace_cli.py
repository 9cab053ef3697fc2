"""Tests for packet tracing and the command-line interface."""

import pytest

from repro.cli import main, parse_topology
from repro.routing import MinimalRouting, UGALRouting
from repro.sim import Network, SimConfig
from repro.sim.trace import PacketTracer
from repro.sim.vec.kernel import load_kernel
from repro.topology import MLFM, OFT, SSPT, SlimFly
from repro.traffic import UniformRandom


class TestTracer:
    def test_records_delivered_packets(self, sf5):
        net = Network(sf5, MinimalRouting(sf5, seed=1))
        tracer = net.enable_trace(capacity=100)
        net.run_synthetic(
            UniformRandom(sf5.num_nodes), load=0.2,
            warmup_ns=200, measure_ns=800, seed=3, drain=True,
        )
        assert tracer.records
        rec = tracer.records[0]
        assert rec.latency_ns > 0
        assert rec.queueing_ns >= 0
        assert rec.num_hops == len(rec.routers) - 1

    def test_capacity_bound(self, sf5):
        net = Network(sf5, MinimalRouting(sf5, seed=1))
        tracer = net.enable_trace(capacity=5)
        net.run_synthetic(
            UniformRandom(sf5.num_nodes), load=0.3,
            warmup_ns=200, measure_ns=800, seed=3, drain=True,
        )
        assert len(tracer.records) == 5
        assert tracer.dropped > 0

    def test_start_filter(self, sf5):
        net = Network(sf5, MinimalRouting(sf5, seed=1))
        tracer = net.enable_trace(capacity=1000, start_ns=500.0)
        net.run_synthetic(
            UniformRandom(sf5.num_nodes), load=0.2,
            warmup_ns=200, measure_ns=600, seed=3, drain=True,
        )
        assert all(r.eject_time >= 500.0 for r in tracer.records)

    def test_by_kind(self, sf5):
        net = Network(sf5, MinimalRouting(sf5, seed=1))
        tracer = net.enable_trace()
        net.run_synthetic(
            UniformRandom(sf5.num_nodes), load=0.2,
            warmup_ns=200, measure_ns=600, seed=3, drain=True,
        )
        assert set(tracer.by_kind()) == {"minimal"}

    @pytest.mark.skipif(load_kernel() is None, reason="compiled kernel unavailable")
    def test_enabled_mid_run_records_same_packets_on_both_engines(self, sf5):
        # The tracer is a delivery listener like any other: enabled
        # from a scheduled callback, it sees every later delivery, which
        # the kernel then calls it for.

        def run(backend):
            net = Network(sf5, UGALRouting(sf5, seed=1), SimConfig(backend=backend))
            tracers = []
            net.engine.schedule_at(
                700.0, lambda: tracers.append(net.enable_trace(capacity=100_000))
            )
            net.run_synthetic(
                UniformRandom(sf5.num_nodes), load=0.5,
                warmup_ns=200, measure_ns=1_000, seed=3, drain=True,
            )
            return net, tracers[0]

        ref_net, ref = run("object")
        net, got = run("kernel")
        assert got.records == ref.records
        assert 0 < len(ref.records) < ref_net.stats.ejected_total
        assert min(r.eject_time for r in ref.records) >= 700.0
        escapes = net.engine.kernel_stats()["escapes"]
        assert escapes["deliver"]["count"] == len(got.records)

    def test_latencies_list(self):
        tracer = PacketTracer(capacity=3)
        assert tracer.latencies() == []

    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            PacketTracer(capacity=0)


class TestTopologySpecs:
    def test_sf(self):
        topo = parse_topology("sf:q=5")
        assert isinstance(topo, SlimFly) and topo.q == 5 and topo.p == 3

    def test_sf_ceil_and_int(self):
        assert parse_topology("sf:q=5,p=ceil").p == 4
        assert parse_topology("sf:q=5,p=2").p == 2

    def test_mlfm(self):
        topo = parse_topology("mlfm:h=4")
        assert isinstance(topo, MLFM) and topo.h == 4

    def test_mlfm_general(self):
        topo = parse_topology("mlfm:h=4,l=2,p=3")
        assert topo.l == 2 and topo.p == 3

    def test_oft(self):
        topo = parse_topology("oft:k=4")
        assert isinstance(topo, OFT) and topo.k == 4

    def test_sspt(self):
        topo = parse_topology("sspt:r1=4,r2=2")
        assert isinstance(topo, SSPT)

    def test_hyperx_balanced_and_explicit(self):
        assert parse_topology("hyperx:r=9").num_routers == 16
        assert parse_topology("hyperx:s1=3,s2=4,p=2").num_routers == 12

    def test_fattrees_dragonfly(self):
        assert parse_topology("ft2:r=8").num_nodes == 32
        assert parse_topology("ft3:r=4").num_nodes == 16
        assert parse_topology("dfly:p=2").num_nodes == 72

    def test_bad_specs(self):
        with pytest.raises(ValueError):
            parse_topology("torus:d=3")
        with pytest.raises(ValueError):
            parse_topology("sf:p=3")  # missing q
        with pytest.raises(ValueError):
            parse_topology("sf:q")  # not key=value


class TestCLICommands:
    def test_info(self, capsys):
        assert main(["info", "mlfm:h=4"]) == 0
        out = capsys.readouterr().out
        assert "MLFM(h=4)" in out and "endpoint diameter" in out

    def test_info_no_diameter(self, capsys):
        assert main(["info", "sf:q=5", "--no-diameter"]) == 0
        assert "endpoint diameter" not in capsys.readouterr().out

    def test_simulate(self, capsys):
        rc = main([
            "simulate", "mlfm:h=4", "--routing", "min", "--pattern", "uniform",
            "--load", "0.3", "--warmup", "300", "--measure", "1200",
        ])
        assert rc == 0
        assert "throughput=" in capsys.readouterr().out

    def test_sweep(self, capsys):
        rc = main([
            "sweep", "oft:k=4", "--routing", "min", "--pattern", "worstcase",
            "--loads", "0.1,0.3", "--warmup", "300", "--measure", "1200",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "saturation point" in out

    def test_exchange(self, capsys):
        rc = main([
            "exchange", "oft:k=4", "--pattern", "a2a", "--routing", "min",
            "--msg-bytes", "256",
        ])
        assert rc == 0
        assert "effective_throughput=" in capsys.readouterr().out

    def test_figure_table2(self, capsys):
        assert main(["figure", "table2"]) == 0
        assert "4-ML3B" in capsys.readouterr().out

    def test_figure_unknown(self, capsys):
        assert main(["figure", "fig99"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_scalability(self, capsys):
        assert main(["scalability", "--max-radix", "16"]) == 0
        assert "OFT" in capsys.readouterr().out

    def test_bisection(self, capsys):
        assert main(["bisection", "oft:k=3", "--restarts", "4"]) == 0
        assert "bisection=" in capsys.readouterr().out

    def test_bad_topology_exit_code(self, capsys):
        assert main(["info", "nonsense:x=1"]) == 2

    @pytest.mark.parametrize("argv", [
        ["simulate", "sf:q=5", "--routing", "min", "--load", "0.3",
         "--faults", "fail@500:0-1", "--warmup", "200", "--measure", "600"],
        ["workload", "sf:q=5", "--collective", "halo3d", "--sizes", "512",
         "--faults", "fail@500:0-1"],
    ], ids=["simulate", "workload"])
    def test_no_route_is_a_usage_error(self, argv, capsys):
        # Minimal routing provisions two VCs; a detour around the failed
        # link needs three or four hops, so RouteCache raises
        # NoRouteError, which exits like a ValueError: one error line
        # naming the remedy and code 2, not a traceback.
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "safe_vc_policy" in err
        assert "Traceback" not in err

    def test_broken_pipe_exits_cleanly(self, monkeypatch, tmp_path):
        # `repro ... | head`: the reader closing early is not an error,
        # and stdout is pointed at the null device so the interpreter's
        # exit-time flush cannot raise again.
        import os
        import sys

        import repro.cli

        def closed_reader(args):
            raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr(repro.cli, "_cmd_info", closed_reader)
        with open(tmp_path / "stdout", "w") as stdout:
            monkeypatch.setattr(sys, "stdout", stdout)
            assert main(["info", "sf:q=5"]) == 0
            assert os.path.samestat(os.fstat(stdout.fileno()), os.stat(os.devnull))

    def test_ugal_routing_names(self, capsys):
        rc = main([
            "simulate", "sf:q=4", "--routing", "ugal-ath", "--pattern", "uniform",
            "--load", "0.2", "--warmup", "200", "--measure", "800",
        ])
        assert rc == 0


class TestValidateCommand:
    def test_healthy_topology(self, capsys):
        assert main(["validate", "mlfm:h=3"]) == 0
        out = capsys.readouterr().out
        assert "HEALTHY" in out
        assert "deadlock (indirect" in out

    def test_skip_indirect(self, capsys):
        assert main(["validate", "sf:q=4", "--skip-indirect"]) == 0
        out = capsys.readouterr().out
        assert "indirect" not in out


class TestReproduceCommand:
    def test_analytic_subset(self, capsys, tmp_path):
        out_md = tmp_path / "summary.md"
        out_json = tmp_path / "data.json"
        rc = main([
            "reproduce", "--only", "table2,fig3",
            "--output", str(out_md), "--json", str(out_json),
        ])
        assert rc == 0
        assert out_md.exists() and out_json.exists()
        assert "table2" in out_md.read_text()


class TestSimulateTraceOutput:
    ARGS = [
        "simulate", "sf:q=4", "--routing", "min", "--pattern", "uniform",
        "--load", "0.3", "--warmup", "200", "--measure", "800",
    ]

    def test_trace_summary_printed(self, capsys):
        rc = main(self.ARGS + ["--trace", "100000"])
        assert rc == 0
        captured = capsys.readouterr()
        assert "packets recorded" in captured.out
        # Roomy capacity: nothing dropped, so no truncation warning.
        assert "warning: trace capacity" not in captured.err

    def test_truncation_warned_not_silent(self, capsys):
        """A too-small --trace must say how many packets it lost."""
        rc = main(self.ARGS + ["--trace", "5"])
        assert rc == 0
        captured = capsys.readouterr()
        assert "trace: 5 packets recorded" in captured.out
        assert "warning: trace capacity 5 exhausted" in captured.err
        assert "raise --trace" in captured.err

    def test_no_trace_no_summary(self, capsys):
        rc = main(self.ARGS)
        assert rc == 0
        captured = capsys.readouterr()
        assert "packets recorded" not in captured.out


class TestKernelProfileOutput:
    needs_kernel = pytest.mark.skipif(
        __import__("repro.sim.vec.kernel", fromlist=["load_kernel"])
        .load_kernel() is None,
        reason="compiled kernel unavailable",
    )

    @needs_kernel
    def test_profile_reports_fast_path_and_escape_rows(self, capsys):
        rc = main([
            "simulate", "sf:q=4", "--routing", "ugal", "--pattern", "uniform",
            "--load", "0.3", "--warmup", "200", "--measure", "800",
            "--backend", "kernel", "--profile",
        ])
        assert rc == 0
        err = capsys.readouterr().err
        assert "kernel escape split" in err
        # Per-packet work stays in C and the table says so explicitly.
        assert "fast-path make_packet" in err
        assert "fast-path deliver" in err
        # Cold paths (the scheduled reset CALL) still show as escapes.
        assert "escape call:" in err
        # The loop's ledger: where pushes went and the sampled split.
        assert "on delay lanes (SER " in err
        assert "heap high-water" in err
        assert "sampled loop time (1 event in 64" in err
        assert "handler RECV:" in err

    @needs_kernel
    def test_profile_zero_escape_run_is_wellformed(self, capsys):
        # Regression: a kernel that never ran (run_ns == 0, no escapes)
        # used to print an empty table; the percent math must not
        # divide by zero and the empty escape set must be explicit.
        from repro.cli import _print_kernel_profile
        from repro.routing import UGALRouting
        from repro.sim import SimConfig

        topo = SlimFly(4)
        net = Network(topo, UGALRouting(topo, seed=0),
                      SimConfig(backend="kernel"))
        _print_kernel_profile(net)
        err = capsys.readouterr().err
        assert "in-kernel: 0 events" in err
        assert "escapes: none" in err
        assert "nan" not in err and "inf" not in err

    def test_profile_silent_on_python_backends(self, capsys):
        from repro.cli import _print_kernel_profile

        topo = SlimFly(4)
        net = Network(topo, MinimalRouting(topo, seed=0))
        _print_kernel_profile(net)
        assert capsys.readouterr().err == ""


class TestWorkloadCommand:
    def test_ring_allreduce_serial(self, capsys):
        rc = main([
            "workload", "sf:q=4", "--collective", "ring-allreduce",
            "--routing", "min", "--sizes", "1024,4096", "--ranks", "8",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "ring-allreduce" in out
        assert "completion ns" in out
        assert out.count("\n") >= 4  # header + two size rows

    def test_unknown_collective_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main([
                "workload", "sf:q=4", "--collective", "bogus",
            ])

    def test_orchestrated_matches_serial(self, capsys, tmp_path):
        common = [
            "workload", "sf:q=4", "--collective", "allgather",
            "--routing", "min", "--sizes", "512", "--ranks", "6",
        ]
        assert main(common) == 0
        serial = capsys.readouterr().out
        assert main(common + ["--jobs", "2", "--cache-dir", str(tmp_path)]) == 0
        parallel = capsys.readouterr().out

        def table_rows(text):
            return [ln for ln in text.splitlines() if ln.lstrip().startswith("512")]

        assert table_rows(serial) == table_rows(parallel)
        assert table_rows(serial)  # the row exists at all
