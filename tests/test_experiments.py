"""Tests for the experiment harness (configs, runner, figure functions).

Simulation-heavy figure functions are exercised at reduced settings;
the full regenerations live in benchmarks/.
"""

import pytest

from repro.experiments import (
    SCALES,
    configs_for_scale,
    fig3_data,
    fig5_data,
    load_sweep,
    run_exchange,
    saturation_point,
    table2_data,
    windows_for_scale,
)
from repro.experiments.runner import SweepPoint
from repro.experiments.specs import build_routing
from repro.routing import MinimalRouting
from repro.topology import MLFM
from repro.traffic import AllToAll, UniformRandom


class TestConfigs:
    def test_scales_exist(self):
        assert set(SCALES) == {"tiny", "small", "paper"}

    def test_four_configs_per_scale(self):
        for scale in SCALES:
            configs = configs_for_scale(scale)
            assert [c.key for c in configs] == ["sf-floor", "sf-ceil", "mlfm", "oft"]

    def test_paper_scale_sizes(self):
        by_key = {c.key: c for c in configs_for_scale("paper")}
        assert by_key["sf-floor"].topology().num_nodes == 3042
        assert by_key["sf-ceil"].topology().num_nodes == 3380
        assert by_key["mlfm"].topology().num_nodes == 3600
        assert by_key["oft"].topology().num_nodes == 3192

    def test_unknown_scale_rejected(self):
        with pytest.raises(ValueError):
            configs_for_scale("huge")

    def test_routing_factories(self):
        config = configs_for_scale("tiny")[0]
        topo = config.topology()
        assert build_routing(*config.routing_spec("min"), topo).name == "MIN"
        assert build_routing(*config.routing_spec("inr"), topo).name == "INR"
        adaptive = build_routing(*config.routing_spec("ugal"), topo)
        assert adaptive.name.startswith("UGAL")

    def test_adaptive_overrides(self):
        config = configs_for_scale("tiny")[2]  # mlfm
        topo = config.topology()
        adaptive = build_routing(*config.routing_spec("ugal", num_indirect=9), topo)
        assert adaptive.num_indirect == 9

    def test_windows(self):
        w = windows_for_scale("paper")
        assert w.measure_ns == 180_000.0
        assert w.a2a_message_bytes == 7_680
        assert w.nn_message_bytes == 524_288
        assert windows_for_scale("tiny").measure_ns < w.measure_ns


class TestRunner:
    def test_load_sweep_points(self, mlfm4):
        pts = load_sweep(
            mlfm4,
            lambda t, s: MinimalRouting(t, seed=s),
            lambda t: UniformRandom(t.num_nodes),
            loads=[0.2, 0.5],
            warmup_ns=500,
            measure_ns=1500,
            seed=1,
        )
        assert [p.load for p in pts] == [0.2, 0.5]
        assert all(0 < p.throughput <= 1 for p in pts)
        assert all(p.mean_latency_ns and p.mean_latency_ns > 0 for p in pts)

    def test_saturation_point_accepted(self):
        pts = [
            SweepPoint(0.2, 0.2, 1.0, 1.0, 10, 0.0),
            SweepPoint(0.5, 0.49, 1.0, 1.0, 10, 0.0),
            SweepPoint(0.8, 0.6, 1.0, 1.0, 10, 0.0),
        ]
        assert saturation_point(pts) == 0.5

    def test_saturation_point_all_saturated(self):
        pts = [SweepPoint(0.5, 0.2, 1.0, 1.0, 10, 0.0)]
        assert saturation_point(pts) == 0.2

    def test_run_exchange(self, mlfm4):
        res = run_exchange(
            mlfm4,
            lambda t, s: MinimalRouting(t, seed=s),
            AllToAll(mlfm4.num_nodes, message_bytes=256),
        )
        assert 0 < res["effective_throughput"] <= 1.0


class TestFigureFunctions:
    def test_table2(self):
        data = table2_data()
        assert data["table"].shape == (13, 4)
        assert "4-ML3B" in data["report"]

    def test_fig3(self):
        data = fig3_data(max_radix=32)
        assert data["best_at_radix"]["OFT"] > data["best_at_radix"]["MLFM"]
        assert "Fig. 3" in data["report"]

    def test_fig5(self):
        data = fig5_data(scale="tiny", seed=0)
        assert data["saturation"] == pytest.approx(data["expected_saturation"], rel=0.15)

    def test_fig6_smoke(self):
        from repro.experiments import fig6_data

        data = fig6_data(
            scale="tiny", uni_loads=(0.4,), wc_loads=(0.1,),
            configs=configs_for_scale("tiny")[2:3],  # just MLFM
        )
        assert "mlfm/MIN/UNI" in data["saturations"]
        assert len(data["rows"]) == 4  # 2 routings x 2 patterns x 1 load

    def test_fig13_smoke(self):
        from repro.experiments import fig13_data

        data = fig13_data(scale="tiny", configs=configs_for_scale("tiny")[3:4])
        assert set(data["results"]) == {"oft/MIN", "oft/INR", "oft/ADAPT"}
        assert all(0 < v <= 1 for v in data["results"].values())


class TestAdaptiveFigureFunctions:
    """Smoke coverage of the fig7-12 code paths at minimal settings
    (full regenerations live in benchmarks/)."""

    def test_fig7_minimal_grid(self):
        from repro.experiments import fig7_data

        data = fig7_data(scale="tiny", uni_loads=(0.4,), wc_loads=(0.1,),
                         ni_values=(2,), csf_values=(1.0,))
        assert "a" in data and "b" in data
        assert len(data["a"]["rows"]) == 2  # 1 value x 2 patterns x 1 load

    def test_fig8_threshold_grid(self):
        from repro.experiments import fig8_data

        data = fig8_data(scale="tiny", uni_loads=(0.4,), wc_loads=(0.1,),
                         ni_values=(2,), csf_values=(1.0,), threshold=0.10)
        # The threshold keeps the uniform point essentially minimal.
        uni_rows = [r for r in data["a"]["rows"] if r[2] == "UNI"]
        assert uni_rows[0][6] < 0.1  # indirect fraction

    def test_fig9_and_fig11_mlfm(self):
        from repro.experiments import fig9_data, fig11_data

        d9 = fig9_data(scale="tiny", uni_loads=(0.4,), wc_loads=(0.1,),
                       ni_values=(2,), c_values=(2.0,))
        d11 = fig11_data(scale="tiny", uni_loads=(0.4,), wc_loads=(0.1,),
                         ni_values=(2,), c_values=(2.0,))
        assert len(d9["a"]["rows"]) == len(d11["a"]["rows"]) == 2

    def test_fig10_and_fig12_oft(self):
        from repro.experiments import fig10_data, fig12_data

        d10 = fig10_data(scale="tiny", uni_loads=(0.4,), wc_loads=(0.1,),
                         ni_values=(1,), c_values=(2.0,))
        d12 = fig12_data(scale="tiny", uni_loads=(0.4,), wc_loads=(0.1,),
                         ni_values=(1,), c_values=(2.0,))
        for d in (d10, d12):
            for row in d["a"]["rows"]:
                assert 0.0 <= row[4] <= 1.0  # throughput in range

    def test_fig14_smoke(self):
        from repro.experiments import fig14_data, configs_for_scale

        data = fig14_data(scale="tiny", configs=configs_for_scale("tiny")[2:3])
        assert set(data["results"]) == {"mlfm/MIN", "mlfm/INR", "mlfm/ADAPT"}

    def test_tail_effects_smoke(self):
        from repro.experiments import tail_effects_data, configs_for_scale

        data = tail_effects_data(scale="tiny", configs=configs_for_scale("tiny")[3:4])
        assert 0.5 <= data["ratios"]["oft"] <= 1.1


class TestWorkloadFigureFunctions:
    """The closed-loop figure functions at one small size on the OFT config."""

    def test_collectives_rows(self):
        from repro.experiments import collectives_data

        data = collectives_data(scale="tiny", sizes=(512,),
                                configs=configs_for_scale("tiny")[3:4])
        assert data["sizes"] == [512]
        assert set(data["results"]) == {"oft/MIN/B512", "oft/ADAPT/B512"}
        assert [row[:3] for row in data["rows"]] == [
            ["oft", "MIN", 512], ["oft", "ADAPT", 512],
        ]
        for row in data["rows"]:
            completion, critical_path, stretch, skew = row[3:]
            assert completion >= critical_path > 0
            assert stretch == pytest.approx(completion / critical_path)
            assert skew >= 1.0

    def test_resilience_rows(self):
        from repro.experiments import resilience_configs, resilience_data

        oft = [c for c in resilience_configs("tiny") if c.key == "oft"]
        data = resilience_data(scale="tiny", message_bytes=512, configs=oft)
        assert data["message_bytes"] == 512
        assert len(data["fault_specs"]) == 1
        assert data["fault_specs"][0].startswith("drip@")
        (row,) = data["rows"]
        config_key, base_ns, degraded_ns, stretch, reroutes, dropped, skew = row
        assert config_key == "oft"
        assert degraded_ns >= base_ns > 0
        assert stretch == pytest.approx(degraded_ns / base_ns)
        assert reroutes >= 0 and dropped == 0 and skew >= 0.0
        assert data["results"]["oft"]["degraded"]["fault_events"] >= 1
        assert data["results"]["oft"]["baseline"].get("fault_events", 0) == 0

    def test_resilience_configs_add_hyperx(self):
        from repro.experiments import resilience_configs

        configs = resilience_configs("tiny")
        assert [c.key for c in configs] == ["sf-floor", "sf-ceil", "mlfm", "oft", "hyperx"]
        hyperx = configs[-1].topology()
        assert (hyperx.num_routers, hyperx.num_nodes) == (9, 18)


class TestFiguresThroughOrchestrator:
    """A figure gives the same rows inline and through a process pool."""

    def test_fig6_rows_identical(self):
        from repro.experiments import fig6_data
        from repro.orchestrate import Orchestrator

        kwargs = dict(scale="tiny", uni_loads=(0.5,), wc_loads=(0.2,),
                      configs=configs_for_scale("tiny")[:1])
        inline = fig6_data(orchestrator=None, **kwargs)
        pooled = fig6_data(orchestrator=Orchestrator(jobs=2), **kwargs)
        assert len(inline["rows"]) == 4
        assert inline["rows"] == pooled["rows"]
        assert inline["saturations"] == pooled["saturations"]

    def test_fig13_rows_identical(self):
        from repro.experiments import fig13_data
        from repro.orchestrate import Orchestrator

        configs = configs_for_scale("tiny")[3:4]
        inline = fig13_data(scale="tiny", configs=configs, orchestrator=None)
        pooled = fig13_data(scale="tiny", configs=configs,
                            orchestrator=Orchestrator(jobs=2))
        assert len(inline["rows"]) == 3
        assert inline["rows"] == pooled["rows"]
        assert inline["report"] == pooled["report"]


class TestMessageTracking:
    def test_per_message_stats(self, mlfm4):
        from repro.sim import Network
        from repro.routing import MinimalRouting

        net = Network(mlfm4, MinimalRouting(mlfm4, seed=1))
        res = net.run_exchange(
            AllToAll(mlfm4.num_nodes, message_bytes=512), track_messages=True
        )
        msgs = res["messages"]
        n = mlfm4.num_nodes
        assert msgs["count"] == n * (n - 1)
        assert 0 < msgs["mean_latency_ns"] <= msgs["max_latency_ns"]
        assert msgs["p50_latency_ns"] <= msgs["p99_latency_ns"] <= msgs["max_latency_ns"]

    def test_tracking_off_by_default(self, mlfm4):
        from repro.sim import Network
        from repro.routing import MinimalRouting

        net = Network(mlfm4, MinimalRouting(mlfm4, seed=1))
        res = net.run_exchange(AllToAll(mlfm4.num_nodes, message_bytes=512))
        assert "messages" not in res
