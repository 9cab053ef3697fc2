"""Tests for the collective-communication workload engine (repro.workload)."""

import pytest

from repro.cli import parse_topology
from repro.routing import MinimalRouting, UGALRouting
from repro.sim import Network
from repro.sim.config import SimConfig
from repro.sim.vec.kernel import load_kernel
from repro.traffic import AllToAll, NearestNeighbor3D
from repro.workload import (
    Workload,
    WorkloadDriver,
    build_workload,
    halo_exchange_3d,
    largest_power_of_two,
    phased_alltoall,
    recursive_doubling_allreduce,
    ring_allgather,
    ring_allreduce,
)


# --------------------------------------------------------------------------
# DAG structure.
# --------------------------------------------------------------------------


class TestWorkloadDag:
    def test_add_and_iterate(self):
        w = Workload("t")
        a = w.add(0, 1, 100)
        b = w.add(1, 2, 200, deps=[a])
        assert len(w) == 2
        assert [m.mid for m in w] == [a, b]
        assert w.total_bytes == 300
        assert w.endpoints() == (0, 1, 2)

    def test_unknown_dependency_rejected(self):
        w = Workload()
        with pytest.raises(ValueError, match="unknown dependency"):
            w.add(0, 1, 10, deps=[7])

    def test_bad_size_and_endpoints_rejected(self):
        w = Workload()
        with pytest.raises(ValueError):
            w.add(0, 1, -1)
        with pytest.raises(ValueError):
            w.add(-2, 1, 10)

    def test_validate_checks_node_range(self):
        w = Workload()
        w.add(0, 5, 10)
        with pytest.raises(ValueError, match="exceed node count"):
            w.validate(num_nodes=4)

    def test_cycle_detected(self):
        # add() cannot create a forward reference, so splice a cycle in
        # behind the API to prove topological_order catches it.
        from repro.workload.dag import Message

        w = Workload("cyclic")
        a = w.add(0, 1, 10)
        b = w.add(1, 2, 10, deps=[a])
        w.messages[a] = Message(a, 0, 1, 10, deps=(b,))
        with pytest.raises(ValueError, match="cycle"):
            w.topological_order()

    def test_critical_path_linear_chain(self):
        w = Workload()
        a = w.add(0, 1, 100)
        b = w.add(1, 2, 300, deps=[a])
        c = w.add(2, 3, 50, deps=[b])
        w.add(3, 0, 10)  # independent side message
        cp = w.critical_path()
        assert cp.length == 3
        assert cp.bytes == 450
        assert cp.messages == [a, b, c]

    def test_critical_path_prefers_heavier_branch(self):
        w = Workload()
        root = w.add(0, 1, 10)
        w.add(1, 2, 10, deps=[root])
        heavy = w.add(1, 3, 1000, deps=[root])
        cp = w.critical_path()
        assert cp.messages[-1] == heavy
        assert cp.bytes == 1010

    def test_local_messages_count_in_length_not_bytes(self):
        w = Workload()
        a = w.add(0, 0, 0)  # control-only
        b = w.add(0, 1, 100, deps=[a])
        cp = w.critical_path()
        assert cp.length == 2
        assert cp.bytes == 100

    def test_ideal_ns_lower_bound_formula(self):
        cfg = SimConfig()
        w = Workload()
        a = w.add(0, 1, cfg.packet_bytes * 2)
        w.add(1, 2, cfg.packet_bytes, deps=[a])
        cp = w.critical_path()
        per_msg = cfg.switch_latency_ns + 2 * cfg.link_latency_ns
        expected = 2 * per_msg + 3 * cfg.packet_time_ns
        assert cp.ideal_ns(cfg) == pytest.approx(expected)

    def test_remap(self):
        w = Workload()
        a = w.add(0, 1, 64)
        w.add(1, 0, 64, deps=[a])
        m = w.remap([10, 20])
        msgs = list(m)
        assert (msgs[0].src, msgs[0].dst) == (10, 20)
        assert (msgs[1].src, msgs[1].dst) == (20, 10)
        assert msgs[1].deps == (a,)

    def test_phases_in_first_appearance_order(self):
        w = Workload()
        w.add(0, 1, 1, phase="x")
        w.add(1, 2, 1, phase="y")
        w.add(2, 3, 1, phase="x")
        assert w.phases == ["x", "y"]


# --------------------------------------------------------------------------
# Schedule generators.
# --------------------------------------------------------------------------


class TestGenerators:
    def test_ring_allreduce_shape(self):
        r, b = 8, 8000
        w = ring_allreduce(r, b)
        assert w.num_messages == 2 * (r - 1) * r
        assert w.phases == ["reduce-scatter", "all-gather"]
        # Bandwidth-optimal volume: each rank moves 2(R-1) chunks.
        chunk = -(-b // r)
        assert w.total_bytes == 2 * (r - 1) * r * chunk
        # Critical path follows one chunk around the ring twice.
        assert w.critical_path().length == 2 * (r - 1)

    def test_ring_allreduce_dependency_is_previous_step_upstream(self):
        w = ring_allreduce(4, 400)
        msgs = {m.mid: m for m in w}
        # Step 0 sends have no deps; step 1 send of rank i depends on the
        # step 0 send of rank i-1 (the chunk that just arrived).
        step0 = [m for m in w if not m.deps]
        assert len(step0) == 4
        step1 = [m for m in w if m.deps and msgs[m.deps[0]].mid in
                 {s.mid for s in step0}]
        for m in step1:
            dep = msgs[m.deps[0]]
            assert dep.dst == m.src

    def test_recursive_doubling_shape(self):
        r, b = 16, 1024
        w = recursive_doubling_allreduce(r, b)
        assert w.num_messages == r * 4  # log2(16) rounds of R sends
        assert w.critical_path().length == 4  # one message per round
        # Every round pairs i with i ^ 2^round.
        for m in w:
            rnd = int(m.phase[len("round"):])
            assert m.dst == m.src ^ (1 << rnd)

    def test_recursive_doubling_rejects_non_power_of_two(self):
        with pytest.raises(ValueError, match="power-of-two"):
            recursive_doubling_allreduce(12, 64)

    def test_largest_power_of_two(self):
        assert largest_power_of_two(1) == 1
        assert largest_power_of_two(12) == 8
        assert largest_power_of_two(16) == 16
        with pytest.raises(ValueError):
            largest_power_of_two(0)

    def test_ring_allgather_shape(self):
        r, b = 6, 512
        w = ring_allgather(r, b)
        assert w.num_messages == (r - 1) * r
        assert w.total_bytes == (r - 1) * r * b
        assert w.critical_path().length == r - 1

    def test_halo_matches_nearest_neighbor_geometry(self):
        dims = (3, 3, 2)
        w = halo_exchange_3d(18, 1024, dims=dims)
        nn = NearestNeighbor3D(18, message_bytes=1024, dims=dims)
        got = {}
        for m in w:
            got.setdefault(m.src, set()).add(m.dst)
        for rank in range(18):
            assert got.get(rank, set()) == {d for d, _ in nn.node_messages(rank)}

    def test_halo_iterations_gate_on_all_inbound(self):
        w = halo_exchange_3d(8, 64, iterations=2, dims=(2, 2, 2))
        msgs = {m.mid: m for m in w}
        second = [m for m in w if m.phase == "iter1"]
        assert second
        for m in second:
            # Every dependency is an iter0 send addressed to this sender.
            assert m.deps
            for d in m.deps:
                assert msgs[d].phase == "iter0"
                assert msgs[d].dst == m.src

    def test_phased_alltoall_phases_hit_each_destination_once(self):
        r = 7
        w = phased_alltoall(r, 128)
        assert w.num_messages == (r - 1) * r
        for ph in range(1, r):
            dsts = [m.dst for m in w if m.phase == f"phase{ph}"]
            assert sorted(dsts) == list(range(r))  # a permutation

    def test_phased_alltoall_barrier_deepens_critical_path(self):
        free = phased_alltoall(6, 128)
        barrier = phased_alltoall(6, 128, barrier=True)
        assert free.critical_path().length == 5
        assert barrier.critical_path().length == 5
        # Barrier mode: every phase-ph message depends on all of ph-1.
        last = [m for m in barrier if m.phase == "phase5"]
        assert all(len(m.deps) == 6 for m in last)

    def test_build_workload_registry(self):
        w = build_workload("ring-allreduce", 50, 4096, ranks=8)
        assert w.num_messages == 2 * 7 * 8
        with pytest.raises(ValueError, match="unknown workload"):
            build_workload("nope", 50, 4096)
        with pytest.raises(ValueError, match="exceeds node count"):
            build_workload("allgather", 10, 64, ranks=20)

    def test_build_workload_trims_rd_to_power_of_two(self):
        w = build_workload("rd-allreduce", 50, 1024)
        assert max(m.src for m in w) == 31  # 32 of 50 ranks participate


# --------------------------------------------------------------------------
# Closed-loop driver.
# --------------------------------------------------------------------------


TOPOLOGIES = ["sf:q=5", "mlfm:h=5", "oft:k=4"]


def _ugal(topo, seed):
    from repro.topology import SlimFly

    if isinstance(topo, SlimFly):
        return UGALRouting(topo, cost_mode="sf", c_sf=1.0, num_indirect=4, seed=seed)
    return UGALRouting(topo, c=2.0, num_indirect=4, seed=seed)


class TestDriver:
    @pytest.mark.parametrize("spec", TOPOLOGIES)
    @pytest.mark.parametrize("routing", ["min", "ugal"])
    def test_allreduce_completes_on_all_topologies(self, spec, routing):
        topo = parse_topology(spec)
        make = (lambda s: MinimalRouting(topo, seed=s)) if routing == "min" \
            else (lambda s: _ugal(topo, s))
        for w in (ring_allreduce(16, 4096), recursive_doubling_allreduce(16, 4096)):
            net = Network(topo, make(1))
            res = net.run_workload(w)
            assert res["completion_ns"] > 0
            assert res["messages"] == w.num_messages
            # Every non-local packet delivered.
            pkt = net.config.packet_bytes
            expected = sum(-(-m.size // pkt) for m in w if not m.is_local)
            assert res["packets"] == expected
            assert res["contention_stretch"] >= 1.0
            assert res["link_load_skew"] >= 1.0

    @pytest.mark.parametrize("spec", TOPOLOGIES)
    def test_completion_times_are_seed_stable(self, spec):
        """Identical seeds => bit-identical completion (regression)."""
        topo_a, topo_b = parse_topology(spec), parse_topology(spec)
        w = ring_allreduce(16, 8192)
        r1 = Network(topo_a, _ugal(topo_a, 3)).run_workload(ring_allreduce(16, 8192))
        r2 = Network(topo_b, _ugal(topo_b, 3)).run_workload(ring_allreduce(16, 8192))
        assert r1["completion_ns"] == r2["completion_ns"]
        assert r1["packets"] == r2["packets"]
        assert r1["phases"] == r2["phases"]
        del w

    def test_dependencies_gate_release(self, sf5):
        """A chain's completion grows linearly: closed-loop, not open-loop."""
        single = Workload("one")
        single.add(0, 1, 256)
        chain = Workload("chain")
        prev = None
        for i in range(5):
            prev = chain.add(i % 2, (i + 1) % 2, 256,
                             deps=[prev] if prev is not None else [])
        t1 = Network(sf5, MinimalRouting(sf5, seed=1)).run_workload(single)
        t5 = Network(sf5, MinimalRouting(sf5, seed=1)).run_workload(chain)
        # Five strictly serialized messages take ~5x one message's time.
        assert t5["completion_ns"] == pytest.approx(5 * t1["completion_ns"], rel=0.01)

    def test_local_messages_complete_and_release(self, sf5):
        w = Workload("ctl")
        gate = w.add(0, 0, 0)  # pure control node
        w.add(0, 1, 512, deps=[gate])
        res = Network(sf5, MinimalRouting(sf5, seed=1)).run_workload(w)
        assert res["messages"] == 2
        assert res["packets"] == 2  # 512 B = 2 packets; control moved none

    def test_incomplete_run_raises(self, sf5):
        net = Network(sf5, MinimalRouting(sf5, seed=1))
        with pytest.raises(RuntimeError, match="incomplete"):
            net.run_workload(ring_allreduce(16, 4096), max_events=10)

    def test_network_reuse_rejected(self, sf5):
        net = Network(sf5, MinimalRouting(sf5, seed=1))
        net.run_workload(ring_allgather(8, 256))
        with pytest.raises(RuntimeError, match="already ran"):
            net.run_workload(ring_allgather(8, 256))

    def test_per_phase_kind_counts_cover_all_packets(self, sf5):
        net = Network(sf5, _ugal(sf5, 2))
        res = net.run_workload(phased_alltoall(24, 512))
        counted = sum(
            c for ph in res["phases"].values() for c in ph["kind_counts"].values()
        )
        assert counted == res["packets"]

    def test_driver_validates_against_topology(self, sf5):
        w = Workload("too-big")
        w.add(0, sf5.num_nodes + 5, 256)
        with pytest.raises(ValueError, match="exceed node count"):
            WorkloadDriver(Network(sf5, MinimalRouting(sf5, seed=1)), w)

    def test_delivery_listener_rejects_non_callable(self, sf5):
        net = Network(sf5, MinimalRouting(sf5, seed=1))
        with pytest.raises(TypeError):
            net.add_delivery_listener(42)

    def test_message_countdown_rejects_bad_arming(self, sf5):
        # On both engines (the kernel's where it builds): nothing is
        # armed by a bad call, and a good one gives one row per group
        # and one column per kind the statistics count.
        for backend in ["object"] + ["kernel"] * (load_kernel() is not None):
            net = Network(sf5, MinimalRouting(sf5, seed=1),
                          SimConfig(backend=backend))
            assert net.backend_in_use == backend
            watch = net.watch_messages
            with pytest.raises(TypeError, match="not callable"):
                watch([1], [True], [0], 42)
            with pytest.raises(ValueError, match="packet counts must be >= 0"):
                watch([1, -1], [True, True], [0, 0], print)
            with pytest.raises(ValueError,
                               match="1 release flags for 2 messages"):
                watch([1, 2], [True], [0, 0], print)
            with pytest.raises(ValueError,
                               match="3 release flags for 2 messages"):
                watch([1, 2], [True, False, True], [0, 0], print)
            with pytest.raises(ValueError, match="1 group ids for 2 messages"):
                watch([1, 2], [True, False], [0], print)
            with pytest.raises(ValueError, match="group ids must be >= 0"):
                watch([1, 2], [True, False], [0, -1], print)
            assert net._msg_left is None
            times, kinds = watch([1, 2], [True, False], [2, 0], print)
            assert list(times) == [-1.0, -1.0]
            assert kinds.typecode == "q"
            assert len(kinds) == 3 * len(net.stats.kind_totals)
            assert not any(kinds)


class TestPhasedAllToAllOrdering:
    def test_ordering_consistent_with_steady_state_exchange(self):
        """Acceptance: phased A2A completion reproduces the paper's
        steady-state all-to-all ordering of SF / MLFM / OFT (ties at
        10%, the reproduction tolerance)."""
        workload_eff = {}
        exchange_eff = {}
        for spec in TOPOLOGIES:
            topo = parse_topology(spec)
            net = Network(topo, MinimalRouting(topo, seed=1))
            res = net.run_workload(phased_alltoall(topo.num_nodes, 256))
            workload_eff[spec] = res["effective_throughput"]
            ex = AllToAll(topo.num_nodes, message_bytes=256, seed=0)
            net2 = Network(topo, MinimalRouting(topo, seed=1))
            exchange_eff[spec] = net2.run_exchange(ex)["effective_throughput"]

        def order(scores, tol=0.10):
            """Pairs (a strictly better than b) outside the tolerance."""
            out = set()
            for a in scores:
                for b in scores:
                    if scores[a] > scores[b] * (1 + tol):
                        out.add((a, b))
            return out

        strict_workload = order(workload_eff)
        strict_exchange = order(exchange_eff)
        # No inversion: whenever the steady-state exchange separates two
        # topologies decisively, the closed-loop schedule must not rank
        # them the other way (and vice versa).
        for a, b in strict_exchange:
            assert (b, a) not in strict_workload, (
                f"{b} beat {a} closed-loop but loses steady-state: "
                f"workload={workload_eff}, exchange={exchange_eff}"
            )
        for a, b in strict_workload:
            assert (b, a) not in strict_exchange
