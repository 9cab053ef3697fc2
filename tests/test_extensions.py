"""Tests for the extension features: channel utilization, UGAL-G,
NN mapping strategies, result export, replicated sweeps, topology
serialization."""

import json
import random

import pytest

from repro.experiments.export import rows_to_dicts, write_csv, write_json
from repro.experiments.runner import load_sweep_replicated
from repro.routing import MinimalRouting, UGALRouting
from repro.sim import Network
from repro.topology import (
    MLFM,
    OFT,
    SlimFly,
    load_topology,
    save_topology,
    topology_from_dict,
    topology_to_dict,
)
from repro.traffic import NearestNeighbor3D, UniformRandom, worst_case_traffic


class TestChannelUtilization:
    def test_worst_case_hotspot_visible(self, mlfm4):
        wc = worst_case_traffic(mlfm4)
        net = Network(mlfm4, MinimalRouting(mlfm4, seed=1))
        net.run_synthetic(wc, load=0.2, warmup_ns=1000, measure_ns=4000, seed=3)
        util = net.channel_utilization()
        router_links = {k: v for k, v in util.items() if k[0] != "eject"}
        # The overloaded single paths run near saturation while the
        # average link is nearly idle.
        assert max(router_links.values()) > 0.7
        mean = sum(router_links.values()) / len(router_links)
        assert mean < 0.45

    def test_uniform_balanced(self, sf5):
        net = Network(sf5, MinimalRouting(sf5, seed=1))
        net.run_synthetic(
            UniformRandom(sf5.num_nodes), load=0.5,
            warmup_ns=1000, measure_ns=4000, seed=3,
        )
        util = net.channel_utilization()
        router_links = [v for k, v in util.items() if k[0] != "eject"]
        # Uniform traffic spreads: no link much above the mean.
        mean = sum(router_links) / len(router_links)
        assert max(router_links) < 3 * mean + 0.05

    def test_ejection_utilization_tracks_load(self, sf5):
        net = Network(sf5, MinimalRouting(sf5, seed=1))
        net.run_synthetic(
            UniformRandom(sf5.num_nodes), load=0.5,
            warmup_ns=1000, measure_ns=4000, seed=3,
        )
        util = net.channel_utilization()
        eject = [v for k, v in util.items() if k[0] == "eject"]
        assert sum(eject) / len(eject) == pytest.approx(0.5, rel=0.1)

    def test_requires_window(self, sf5):
        net = Network(sf5, MinimalRouting(sf5, seed=1))
        with pytest.raises(ValueError):
            net.channel_utilization()

    def test_explicit_window(self, sf5):
        net = Network(sf5, MinimalRouting(sf5, seed=1))
        net.run_synthetic(
            UniformRandom(sf5.num_nodes), load=0.3,
            warmup_ns=500, measure_ns=2000, seed=3,
        )
        a = net.channel_utilization()
        b = net.channel_utilization(window_ns=4000)
        key = next(k for k in a if k[0] != "eject")
        assert b[key] == pytest.approx(a[key] / 2)

    def test_window_set_after_exchange(self, sf5):
        from repro.traffic.alltoall import AllToAll

        net = Network(sf5, MinimalRouting(sf5, seed=1))
        res = net.run_exchange(AllToAll(sf5.num_nodes, message_bytes=256))
        # Previously raised: no window was recorded for finite runs.
        util = net.channel_utilization()
        assert net.utilization_window == pytest.approx(res["completion_ns"])
        router_links = [v for k, v in util.items() if k[0] != "eject"]
        assert max(router_links) > 0
        assert all(0.0 <= v <= 1.0 + 1e-9 for v in router_links)

    def test_window_set_after_workload(self, sf5):
        from repro.workload import ring_allgather

        net = Network(sf5, MinimalRouting(sf5, seed=1))
        res = net.run_workload(ring_allgather(sf5.num_nodes, 512))
        util = net.channel_utilization()
        assert net.utilization_window == pytest.approx(res["completion_ns"])
        assert max(v for k, v in util.items() if k[0] != "eject") > 0

    def test_identical_on_both_engines(self, sf5):
        # The kernel's flat per-port counters and the object engine's
        # ports must give the same utilization map and the same
        # workload link loads, before and after faults, bit for bit.
        from repro.sim import SimConfig
        from repro.sim.vec.kernel import load_kernel
        from repro.workload import build_workload

        if load_kernel() is None:
            pytest.skip("compiled kernel unavailable")

        def uniform(backend):
            net = Network(sf5, UGALRouting(sf5, seed=1), SimConfig(backend=backend))
            net.run_synthetic(UniformRandom(sf5.num_nodes), load=0.6,
                              warmup_ns=500, measure_ns=2000, seed=3)
            assert net.backend_in_use == backend
            return net.channel_utilization()

        def halo(backend):
            config = SimConfig(backend=backend,
                               faults=("drip@200:n=2,every=100,seed=1",))
            net = Network(sf5, UGALRouting(sf5, seed=1), config)
            res = net.run_workload(build_workload("halo3d", sf5.num_nodes, 2048))
            assert res["fault_events"] == 2
            return {k: v for k, v in res.items() if "link_load" in k}

        assert uniform("object") == uniform("kernel")
        loads = halo("object")
        assert sorted(loads) == sorted(
            f"{prefix}link_load_{stat}"
            for prefix in ("", "post_fault_") for stat in ("max", "mean", "skew")
        )
        assert loads == halo("kernel")


class TestUGALGlobal:
    def test_signal_validation(self, sf5):
        with pytest.raises(ValueError):
            UGALRouting(sf5, signal="psychic")

    def test_name(self, sf5):
        assert UGALRouting(sf5, signal="global").name == "UGAL-G"
        assert UGALRouting(sf5, signal="local").name == "UGAL-A"

    def test_global_sees_downstream_congestion(self, mlfm4):
        # Congest the SECOND hop of the minimal path: local UGAL is
        # blind to it, global UGAL diverts.
        src, dst = 0, 7
        middle = mlfm4.common_neighbors(src, dst)[0]

        class SecondHopCongestion:
            def queue_len(self, router, neighbor):
                return 50 if (router, neighbor) == (middle, dst) else 0

            def queue_capacity(self):
                return 100

        ctx = SecondHopCongestion()
        local = UGALRouting(mlfm4, c=1.0, num_indirect=8, seed=1, signal="local")
        glob = UGALRouting(mlfm4, c=1.0, num_indirect=8, seed=1, signal="global")
        assert all(local.route(src, dst, ctx).kind == "minimal" for _ in range(10))
        kinds = {glob.route(src, dst, ctx).kind for _ in range(10)}
        assert "indirect" in kinds

    def test_global_simulates(self, mlfm4):
        net = Network(mlfm4, UGALRouting(mlfm4, signal="global", seed=1))
        stats = net.run_synthetic(
            worst_case_traffic(mlfm4), load=0.3,
            warmup_ns=500, measure_ns=2000, seed=3,
        )
        assert stats.throughput == pytest.approx(0.3, rel=0.15)


class TestNNMapping:
    def test_contiguous_default(self):
        nn = NearestNeighbor3D(60, message_bytes=8, dims=(3, 4, 5))
        assert nn.node_map is None
        assert len(list(nn.node_messages(0))) == 6

    def test_custom_mapping_permutes(self):
        dims = (3, 4, 5)
        mapping = list(range(60))
        random.Random(1).shuffle(mapping)
        nn = NearestNeighbor3D(60, message_bytes=8, dims=dims, node_map=mapping)
        # Messages of the node holding rank 0 go to nodes holding rank
        # 0's torus neighbors.
        node0 = mapping[0]
        dsts = {d for d, _ in nn.node_messages(node0)}
        contiguous = NearestNeighbor3D(60, message_bytes=8, dims=dims)
        expected = {mapping[d] for d, _ in contiguous.node_messages(0)}
        assert dsts == expected

    def test_total_bytes_mapping_invariant(self):
        dims = (3, 4, 5)
        mapping = list(range(60))
        random.Random(2).shuffle(mapping)
        a = NearestNeighbor3D(60, message_bytes=8, dims=dims)
        b = NearestNeighbor3D(60, message_bytes=8, dims=dims, node_map=mapping)
        assert a.total_bytes == b.total_bytes

    def test_unmapped_nodes_idle(self):
        nn = NearestNeighbor3D(70, message_bytes=8, dims=(3, 4, 5),
                               node_map=list(range(60)))
        assert list(nn.node_messages(65)) == []

    def test_mapping_validation(self):
        with pytest.raises(ValueError):
            NearestNeighbor3D(60, dims=(3, 4, 5), node_map=[0, 1])  # wrong length
        with pytest.raises(ValueError):
            NearestNeighbor3D(60, dims=(3, 4, 5), node_map=[0] * 60)  # duplicates
        with pytest.raises(ValueError):
            NearestNeighbor3D(60, dims=(3, 4, 5), node_map=list(range(1, 61)))  # range

    def test_random_mapping_hurts_mlfm(self, mlfm5=None):
        # The paper's point: the contiguous mapping aligns the torus
        # with the topology; a random mapping destroys X-locality.
        from repro.topology import MLFM
        from repro.traffic import paper_torus_dims

        topo = MLFM(4)
        dims = paper_torus_dims(topo)
        mapping = list(range(topo.num_nodes))
        random.Random(3).shuffle(mapping)
        effs = {}
        for label, nm in (("contiguous", None), ("random", mapping)):
            nn = NearestNeighbor3D(topo.num_nodes, message_bytes=2048, dims=dims,
                                   node_map=nm)
            net = Network(topo, MinimalRouting(topo, seed=1))
            effs[label] = net.run_exchange(nn)["effective_throughput"]
        assert effs["contiguous"] > effs["random"]


class TestExport:
    def test_csv_roundtrip(self, tmp_path):
        path = tmp_path / "out.csv"
        write_csv(path, ["a", "b"], [[1, 2.5], [3, 4.5]])
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "a,b"
        assert lines[1] == "1,2.5"

    def test_csv_rejects_ragged(self, tmp_path):
        with pytest.raises(ValueError):
            write_csv(tmp_path / "x.csv", ["a", "b"], [[1]])

    def test_json_handles_figure_payload(self, tmp_path):
        from repro.experiments import fig3_data

        path = tmp_path / "fig3.json"
        write_json(path, fig3_data(max_radix=16))
        data = json.loads(path.read_text())
        assert "best_at_radix" in data

    def test_json_dataclasses(self, tmp_path):
        from repro.analysis import cost_metrics

        m = cost_metrics(MLFM(3))
        path = tmp_path / "m.json"
        write_json(path, m)
        data = json.loads(path.read_text())
        assert data["num_nodes"] == 36

    def test_rows_to_dicts(self):
        out = rows_to_dicts(["x", "y"], [[1, 2]])
        assert out == [{"x": 1, "y": 2}]
        with pytest.raises(ValueError):
            rows_to_dicts(["x"], [[1, 2]])


class TestReplicatedSweep:
    def test_mean_and_std(self, mlfm4):
        points = load_sweep_replicated(
            mlfm4,
            lambda t, s: MinimalRouting(t, seed=s),
            lambda t: UniformRandom(t.num_nodes),
            loads=[0.3],
            replicas=3,
            warmup_ns=800,
            measure_ns=3000,
            seed=5,
        )
        p = points[0]
        assert p.replicas == 3
        assert p.mean_throughput == pytest.approx(0.3, rel=0.1)
        assert p.std_throughput < 0.05
        assert p.mean_latency_ns and p.mean_latency_ns > 0

    def test_rejects_zero_replicas(self, mlfm4):
        with pytest.raises(ValueError):
            load_sweep_replicated(
                mlfm4, lambda t, s: MinimalRouting(t, seed=s),
                lambda t: UniformRandom(t.num_nodes), loads=[0.3], replicas=0,
            )


class TestSerialization:
    def test_dict_roundtrip(self, mlfm4):
        data = topology_to_dict(mlfm4)
        loaded = topology_from_dict(data)
        assert loaded.num_nodes == mlfm4.num_nodes
        assert loaded.num_routers == mlfm4.num_routers
        for r in range(mlfm4.num_routers):
            assert loaded.neighbors(r) == mlfm4.neighbors(r)

    def test_link_classes_preserved(self, mlfm4):
        loaded = topology_from_dict(topology_to_dict(mlfm4))
        for u, v in list(mlfm4.directed_channels())[:50]:
            assert loaded.link_class(u, v) == mlfm4.link_class(u, v)

    def test_valiant_pool_preserved(self, oft4):
        loaded = topology_from_dict(topology_to_dict(oft4))
        assert loaded.valiant_intermediates() == oft4.valiant_intermediates()

    def test_file_roundtrip(self, tmp_path, sf5):
        path = tmp_path / "sf.json"
        save_topology(sf5, path)
        loaded = load_topology(path)
        assert loaded.num_nodes == sf5.num_nodes
        assert loaded.endpoint_diameter() == 2

    def test_version_check(self):
        with pytest.raises(ValueError):
            topology_from_dict({"format_version": 99})

    def test_loaded_topology_simulates(self, mlfm4):
        loaded = topology_from_dict(topology_to_dict(mlfm4))
        net = Network(loaded, MinimalRouting(loaded, seed=1))
        stats = net.run_synthetic(
            UniformRandom(loaded.num_nodes), load=0.3,
            warmup_ns=800, measure_ns=3000, seed=3,
        )
        assert stats.throughput == pytest.approx(0.3, rel=0.15)

    def test_loaded_topology_deadlock_analysis(self, mlfm4):
        from repro.routing import build_cdg_minimal
        from repro.routing.vc import PhaseVC, default_vc_policy

        loaded = topology_from_dict(topology_to_dict(mlfm4))
        # link classes survived, so the default policy dispatch and the
        # CDG proof still work.
        assert isinstance(default_vc_policy(loaded), PhaseVC)
        assert build_cdg_minimal(loaded, PhaseVC()).is_acyclic()
