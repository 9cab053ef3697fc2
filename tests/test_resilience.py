"""repro.resilience: fault schedules, incremental RouteCache
invalidation, degraded-topology legality and fault-aware simulation.

Complements the fault-schedule golden (tests/test_golden_conformance):
here we pin the *component* contracts -- schedule grammar and semantic
validation, row-level cache invalidation/refill/restore cycles, BFS
fallback behaviour, serialisation of degraded topologies, and the
cache-keying separation between fault-free and fault-bearing runs.
"""

from __future__ import annotations

import json
from array import array

import pytest

from repro.analysis.faults import DegradedTopology, degrade, safe_vc_policy
from repro.experiments import conformance
from repro.orchestrate import Job, sim_config_dict
from repro.resilience import FaultSchedule
from repro.routing import UGALRouting
from repro.routing.base import ROUTE_INDIRECT, RoutingAlgorithm
from repro.routing.cache import NoRouteError, RouteCache
from repro.routing.deadlock import build_cdg_minimal, find_cycle
from repro.serve.coalesce import Coalescer, Execution
from repro.serve.models import job_from_request
from repro.sim.config import SimConfig
from repro.sim.network import Network
from repro.sim.vec.kernel import load_kernel
from repro.topology.serialize import (
    load_topology,
    save_topology,
    topology_from_dict,
    topology_to_dict,
)
from repro.topology.validate import validate_topology
from repro.traffic import UniformRandom
from repro.workload import build_workload
from repro.experiments.runner import run_workload


def _link(topo, rid=0):
    """The normalized lowest-numbered link incident to router *rid*."""
    v = min(topo.neighbors(rid))
    return (min(rid, v), max(rid, v))


# ---------------------------------------------------------------------------
# Schedule grammar and semantic validation.
# ---------------------------------------------------------------------------


class TestFaultScheduleParsing:
    def test_valid_specs_parse(self):
        sched = FaultSchedule(
            ["fail@600:0-1", "recover@900:0-1", "fail@100:r3",
             "drip@50:n=3,every=10,seed=2"]
        )
        # fail + recover + router-fail + three drip instances.
        assert len(sched) == 6

    @pytest.mark.parametrize("spec", [
        "nonsense",
        "fail600:0-1",           # missing @
        "explode@600:0-1",       # unknown kind
        "fail@abc:0-1",          # non-numeric time
        "fail@-5:0-1",           # negative time
        "fail@600",              # missing target
        "fail@600:0-0",          # self-link
        "fail@600:zz",           # garbage target
        "fail@600:rX",           # non-numeric router id
        "drip@50:n=2",           # drip without every=
        "drip@50:n=0,every=10",  # n < 1
        "drip@50:n=2,every=0",   # every <= 0
        "drip@50:bogus",         # not key=value
        "drip@50:n=2,every=10,wat=1",  # unknown drip key
    ])
    def test_malformed_specs_raise(self, spec):
        with pytest.raises(ValueError):
            FaultSchedule([spec])

    def test_sim_config_rejects_malformed_specs(self):
        with pytest.raises(ValueError):
            SimConfig(faults=("fail@600",))
        with pytest.raises(ValueError):
            SimConfig(fault_policy="explode")

    def test_sim_config_normalizes_list_specs(self):
        cfg = SimConfig(faults=["fail@600:0-1"])
        assert cfg.faults == ("fail@600:0-1",)


class TestFaultScheduleExpand:
    def test_expand_orders_events_by_time(self, sf5):
        u, v = _link(sf5)
        sched = FaultSchedule(
            [f"recover@900:{u}-{v}", f"fail@600:{u}-{v}",
             "drip@700:n=2,every=50,seed=1"]
        )
        events = sched.expand(sf5)
        assert [e.time for e in events] == sorted(e.time for e in events)
        assert [e.kind for e in events] == ["fail", "fail", "fail", "recover"]

    def test_expand_is_deterministic(self, sf5):
        specs = ["drip@100:n=4,every=25,seed=9"]
        first = FaultSchedule(specs).expand(sf5)
        second = FaultSchedule(specs).expand(sf5)
        assert [e.links for e in first] == [e.links for e in second]
        # Each drip picks a live link of the topology.
        failed = set()
        for e in first:
            (link,) = e.links
            assert sf5.is_edge(*link)
            assert link not in failed
            failed.add(link)

    def test_router_fail_expands_to_all_live_links(self, sf5):
        events = FaultSchedule(["fail@10:r0"]).expand(sf5)
        (ev,) = events
        expected = {(min(0, n), max(0, n)) for n in sf5.neighbors(0)}
        assert set(ev.links) == expected

    def test_semantic_errors(self, sf5):
        u, v = _link(sf5)
        # A non-adjacent pair: router 0's neighbour list is sparse.
        w = next(r for r in range(sf5.num_routers)
                 if r != 0 and r not in sf5.neighbors(0))
        cases = [
            [f"fail@10:0-{w}"],                           # not a link
            [f"fail@10:{u}-{v}", f"fail@20:{u}-{v}"],     # double fail
            [f"recover@10:{u}-{v}"],                      # recover live link
            ["fail@10:r9999"],                            # unknown router
            ["recover@10:r0"],                            # nothing to recover
        ]
        for specs in cases:
            with pytest.raises(ValueError):
                FaultSchedule(specs).expand(sf5)


# ---------------------------------------------------------------------------
# RouteCache incremental invalidation.
# ---------------------------------------------------------------------------


@pytest.fixture()
def cache(sf5):
    return RouteCache(sf5, safe_vc_policy(sf5))


class TestRouteCacheFaults:
    def _fill_all_from(self, cache, src):
        n = cache.topology.num_routers
        for dst in range(n):
            if dst != src:
                cache.minimal_fill(src, dst)

    def test_fail_invalidates_only_crossing_rows(self, cache, sf5):
        e = _link(sf5)
        self._fill_all_from(cache, 0)
        row = cache.minimal_rows[0]
        before = {dst: row[dst] for dst in range(sf5.num_routers) if dst != 0}
        crossing = {
            dst for dst, cands in before.items()
            if any(e in {(min(a, b), max(a, b))
                         for a, b in zip(r.routers, r.routers[1:])}
                   for r in cands)
        }
        assert crossing, "sanity: the failed link must appear in some row"
        cache.fail_link(*e)
        for dst, cands in before.items():
            if dst in crossing:
                assert row[dst] is None, f"row 0->{dst} should be invalidated"
            else:
                # Untouched entries keep their identity: invalidation is
                # row-surgical, not a global flush.
                assert row[dst] is cands

    def test_refill_avoids_failed_link(self, cache, sf5):
        e = _link(sf5)
        cache.fail_link(*e)
        for dst in range(1, sf5.num_routers):
            for route in cache.minimal_fill(0, dst):
                hops = {(min(a, b), max(a, b))
                        for a, b in zip(route.routers, route.routers[1:])}
                assert e not in hops

    def test_last_candidate_removed_falls_back_to_bfs(self, cache, sf5):
        # Adjacent routers on a girth-5 graph have exactly one minimal
        # path (the direct link); failing it forces the BFS fallback.
        u, v = _link(sf5)
        assert len(cache.minimal_fill(u, v)) == 1
        cache.fail_link(u, v)
        (fallback,) = cache.minimal_fill(u, v)
        assert len(fallback.routers) >= 3  # no triangles: detour is 3+ hops
        assert fallback.routers[0] == u and fallback.routers[-1] == v
        assert (u, v) not in {(min(a, b), max(a, b))
                              for a, b in zip(fallback.routers,
                                              fallback.routers[1:])}
        # Beyond the minimal VC budget the fallback is labeled
        # hop-indexed and tagged indirect for the checker.
        assert fallback.kind == ROUTE_INDIRECT
        assert fallback.vcs == tuple(range(len(fallback.routers) - 1))

    def test_fail_refill_recover_cycle_restores_pristine(self, cache, sf5):
        u, v = _link(sf5)
        pristine = cache.minimal_fill(u, v)
        cache.fail_link(u, v)
        degraded = cache.minimal_fill(u, v)
        assert degraded != pristine
        cache.restore_link(u, v)
        # Rows touched while degraded are re-nulled; the refill comes
        # straight from the unpolluted pristine memo (same object).
        assert cache.minimal_rows[u][v] is None
        assert cache.minimal_fill(u, v) is cache.minimal_candidates(u, v)
        assert cache.minimal_fill(u, v) == pristine
        # A second fail cycle behaves identically.
        cache.fail_link(u, v)
        assert cache.minimal_fill(u, v) == degraded
        cache.restore_link(u, v)
        assert cache.minimal_fill(u, v) == pristine

    def test_leg_rows_participate_in_invalidation(self, cache, sf5):
        u, v = _link(sf5)
        cache.leg_fill(u, v)
        cache.fail_link(u, v)
        assert cache.leg_rows[u][v] is None
        (leg,) = cache.leg_fill(u, v)
        assert len(leg) >= 3
        cache.restore_link(u, v)
        assert cache.leg_fill(u, v) == ((u, v),)

    def test_disconnected_destination_raises_noroute(self, cache, sf5):
        target = min(sf5.neighbors(0))
        for nbr in sf5.neighbors(target):
            cache.fail_link(target, nbr)
        with pytest.raises(NoRouteError):
            cache.minimal_fill(0, target)

    def test_runtime_vc_limit_bounds_fallback(self, sf5):
        # With runtime_vcs pinned below the detour length, the fallback
        # must refuse rather than emit unbufferable VC labels.
        cache = RouteCache(sf5, safe_vc_policy(sf5))
        cache.runtime_vcs = 2
        u, v = _link(sf5)
        cache.fail_link(u, v)
        with pytest.raises(NoRouteError):
            cache.minimal_fill(u, v)


# ---------------------------------------------------------------------------
# Degraded-topology legality (validate + CDG) and serialisation.
# ---------------------------------------------------------------------------


class TestDegradedLegality:
    def test_degraded_sf_stays_structurally_valid(self, sf5):
        deg = degrade(sf5, links=[_link(sf5)])
        report = validate_topology(deg, expect_uniform_radix=False,
                                   check_diameter=False)
        assert report.ok, str(report)

    def test_degraded_minimal_cdg_is_acyclic_under_safe_policy(self, sf5):
        deg = degrade(sf5, links=[_link(sf5)])
        policy = safe_vc_policy(deg)
        assert policy.num_vcs_minimal >= deg.endpoint_diameter()
        assert find_cycle(build_cdg_minimal(deg, policy)) is None

    def test_conformance_fault_schedule_is_cdg_safe(self):
        # The exact degraded adjacency the fault golden simulates under
        # (both drip links down at quiesce) must be deadlock-free.
        topo_key = conformance.FAULT_CASE_KEY.partition("/")[0]
        cfg = {c.key: c
               for c in conformance.configs_for_scale(conformance.SCALE)}[topo_key]
        topo = cfg.topology()
        sched = FaultSchedule(conformance.fault_specs(topo))
        failed = set()
        for ev in sched.expand(topo):
            if ev.kind == "fail":
                failed.update(ev.links)
            else:
                failed.difference_update(ev.links)
        deg = DegradedTopology(topo, sorted(failed))
        policy = safe_vc_policy(deg, uses_indirect=True)
        assert find_cycle(build_cdg_minimal(deg, policy)) is None


class TestSerializeDegraded:
    def test_round_trip_through_dict(self, sf5):
        e = _link(sf5)
        deg = degrade(sf5, links=[e])
        clone = topology_from_dict(json.loads(json.dumps(topology_to_dict(deg))))
        assert isinstance(clone, DegradedTopology)
        assert clone.failed_links == [e]
        assert clone.num_routers == deg.num_routers
        for r in range(deg.num_routers):
            assert clone.neighbors(r) == deg.neighbors(r)
            assert clone.base.neighbors(r) == sf5.neighbors(r)
            assert clone.nodes_attached(r) == deg.nodes_attached(r)

    def test_round_trip_preserves_structural_hooks(self, sf5):
        deg = degrade(sf5, fraction=0.05, seed=3)
        clone = topology_from_dict(topology_to_dict(deg))
        assert clone.failed_links == deg.failed_links
        assert clone.valiant_intermediates() == deg.valiant_intermediates()
        u, v = _link(sf5)
        assert clone.link_class(u, v) == deg.link_class(u, v)

    def test_save_load_file(self, sf5, tmp_path):
        deg = degrade(sf5, links=[_link(sf5)])
        path = tmp_path / "deg.json"
        save_topology(deg, path)
        loaded = load_topology(path)
        assert isinstance(loaded, DegradedTopology)
        assert loaded.failed_links == deg.failed_links


# ---------------------------------------------------------------------------
# Cache keying: fault-bearing runs never alias fault-free ones.
# ---------------------------------------------------------------------------


def _job(**config_overrides) -> Job:
    return Job(
        kind="workload",
        topology="sf:q=5,p=floor",
        routing="ugal",
        pattern="ring-allreduce",
        pattern_kwargs={"message_bytes": 512},
        seed=0,
        config=sim_config_dict(SimConfig(**config_overrides)),
    )


class TestFaultHashSeparation:
    def test_fault_fields_change_the_content_hash(self):
        plain = _job().content_hash()
        failed = _job(faults=("fail@600:0-1",)).content_hash()
        other = _job(faults=("fail@700:0-1",)).content_hash()
        dropped = _job(faults=("fail@600:0-1",),
                       fault_policy="drop").content_hash()
        assert len({plain, failed, other, dropped}) == 4

    def test_hash_survives_json_round_trip(self):
        job = _job(faults=("fail@600:0-1", "recover@900:0-1"))
        clone = Job.from_dict(json.loads(json.dumps(job.to_dict())))
        assert clone == job
        assert clone.content_hash() == job.content_hash()
        assert clone.sim_config().faults == ("fail@600:0-1", "recover@900:0-1")

    def test_serve_accepts_fault_bearing_config(self):
        body = _job(faults=("fail@600:0-1",)).to_dict()
        job = job_from_request(body)
        assert job.sim_config().faults == ("fail@600:0-1",)
        assert job.content_hash() == _job(faults=("fail@600:0-1",)).content_hash()

    def test_coalescer_keeps_faulted_runs_distinct(self):
        coalescer = Coalescer()
        plain, faulted = _job(), _job(faults=("fail@600:0-1",))
        coalescer.register(Execution(id="e1", job=plain,
                                     key=plain.content_hash(), owner="t"))
        assert coalescer.lookup(faulted.content_hash()) is None
        coalescer.register(Execution(id="e2", job=faulted,
                                     key=faulted.content_hash(), owner="t"))
        assert len(coalescer) == 2
        assert coalescer.lookup(plain.content_hash()).id == "e1"
        assert coalescer.lookup(faulted.content_hash()).id == "e2"


# ---------------------------------------------------------------------------
# Fault-aware simulation: arming rules, cross-backend workload
# equality, degradation stretch, drop-policy accounting.
# ---------------------------------------------------------------------------


class TestFaultSimulation:
    def test_routing_without_route_cache_cannot_be_armed(self, sf5):
        # Fault awareness lives in the RouteCache: a custom algorithm
        # that routes without one is refused before any traffic runs.
        class Uncached(RoutingAlgorithm):
            num_vcs = 2

            def route(self, src_router, dst_router, congestion=None):
                raise AssertionError("arming must fail before routing")

        u, v = _link(sf5)
        cfg = SimConfig(faults=(f"fail@100:{u}-{v}",))
        net = Network(sf5, Uncached(), cfg)
        workload = build_workload("ring-allreduce", sf5.num_nodes, 256, ranks=4)
        with pytest.raises(ValueError, match="Uncached has none"):
            net.run_workload(workload)

    @staticmethod
    def _run_collective(topo, faults=(), backend="object", check=True):
        cfg = SimConfig(check=check, backend=backend, faults=faults)
        return run_workload(
            topo,
            lambda t, s: UGALRouting(t, seed=s),
            build_workload("ring-allreduce", topo.num_nodes, 512, ranks=16),
            seed=0,
            config=cfg,
        )

    def test_mid_collective_failure_cross_backend_and_stretch(self, sf5):
        u, v = _link(sf5)
        faults = (f"fail@2000:{u}-{v}", f"recover@9000:{u}-{v}")
        baseline = self._run_collective(sf5, check=False)
        obj = self._run_collective(sf5, faults, backend="object")
        bat = self._run_collective(sf5, faults, backend="kernel")
        # Both checked backends agree on every observable of the
        # degraded run -- completion time, packet count and the fault
        # counters -- and the checker stayed clean (it raises on any
        # violation).
        for key in ("completion_ns", "packets", "messages",
                    "fault_events", "fault_reroutes", "fault_dropped",
                    "first_fault_ns"):
            assert obj[key] == bat[key], key
        assert obj["fault_events"] >= 1
        assert obj["first_fault_ns"] == pytest.approx(2000.0)
        # Losing a link mid-collective can only slow completion down.
        stretch = obj["completion_ns"] / baseline["completion_ns"]
        assert stretch >= 1.0
        assert obj["packets"] == baseline["packets"]  # nothing lost

    @pytest.mark.parametrize("policy", ["reroute", "drop"])
    def test_mid_run_calls_read_live_fault_counts(self, sf5, policy):
        # Both engines add every reroute and drop to FaultManager.counts
        # in place (the kernel through a view it holds for the run), so
        # a CALL mid-run reads them as they stand, the same on both.
        def run(backend):
            net = Network(sf5, UGALRouting(sf5, seed=0), SimConfig(
                backend=backend, fault_policy=policy,
                faults=("drip@400:n=6,every=300,seed=4",)))
            fm = net.fault_manager
            counts = fm.counts
            seen = []
            for t in (700.0, 1_300.0, 1_900.0):
                net.engine.schedule_at(
                    t, lambda: seen.append((fm.reroutes, fm.dropped)))
            net.run_synthetic(UniformRandom(sf5.num_nodes), load=0.8,
                              warmup_ns=200.0, measure_ns=2_000.0, seed=5)
            assert fm.counts is counts
            return seen, tuple(counts)

        ref = run("object")
        assert run("kernel") == ref
        seen, final = ref
        moved = 1 if policy == "drop" else 0
        assert 0 < seen[0][moved] < seen[-1][moved] <= final[moved]
        assert final[1 - moved] == 0

    @pytest.mark.skipif(load_kernel() is None,
                        reason="compiled kernel unavailable")
    @pytest.mark.parametrize("counts", [array("q", [0, 0, 0]),
                                        array("d", [0.0, 0.0])])
    def test_kernel_refuses_fault_counts_it_cannot_add_to(self, sf5, counts):
        u, v = _link(sf5)
        net = Network(sf5, UGALRouting(sf5, seed=0), SimConfig(
            backend="kernel", faults=(f"fail@100:{u}-{v}",)))
        net.fault_manager.counts = counts
        with pytest.raises(TypeError, match="fault counts"):
            net.run_synthetic(UniformRandom(sf5.num_nodes), load=0.3,
                              warmup_ns=100.0, measure_ns=300.0, seed=1)

    def test_drop_policy_accounts_for_lost_packets(self):
        # The conformance fault case under policy="drop": packets bound
        # for the dead links are counted lost instead of rerouted, and
        # the checked run's conservation law (delivered + in_flight +
        # dropped) holds to quiescence on both backends.
        obj = conformance.run_fault_case(check=True, policy="drop")
        bat = conformance.run_fault_case(check=True, backend="kernel",
                                         policy="drop")
        assert obj["faults"]["dropped"] > 0
        assert obj["faults"]["reroutes"] == 0
        assert obj["digest"] == bat["digest"]
        assert obj["faults"] == bat["faults"]
        assert obj["delivered"] == bat["delivered"]
