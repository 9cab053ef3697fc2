"""Equivalence and API tests for the compiled kernel backend.

The golden conformance suite pins the kernel against committed
fingerprints at one operating point; these tests stress the equivalence
where the backends are most likely to drift -- near saturation, where
credit stalls, wake-up elision and arbitration pressure are maximal --
and cover the parts the goldens cannot see: engine API semantics,
finite exchanges and closed-loop workloads, checked runs over random
(unstructured) topologies, and the documented ``events`` asymmetry.
"""

from __future__ import annotations

import pytest

from repro.experiments.configs import configs_for_scale
from repro.experiments.specs import build_routing
from repro.routing import MinimalRouting
from repro.sim import Network, SimConfig
from repro.sim.engine import Engine
from repro.sim.vec.kernel import load_kernel as _load_kernel
from repro.topology import MLFM, SlimFly
from repro.traffic import AllToAll, UniformRandom
from repro.workload.collectives import ring_allgather
from repro.workload.driver import run_workload

#: Result keys that legitimately differ across backends: the kernel
#: elides bookkeeping events (fewer executed events for the same
#: physics) and wall-clock is wall-clock.
BACKEND_NEUTRAL_EXCLUDES = {"events", "driver_wall_s"}

needs_kernel = pytest.mark.skipif(
    _load_kernel() is None,
    reason="compiled kernel unavailable (no compiler or REPRO_NO_KERNEL set)",
)

KERNEL = pytest.param("kernel", marks=needs_kernel)

#: The kernel under both of its names: ``"batched"`` is the deprecated
#: alias that now selects the kernel too (and, like ``"kernel"``, falls
#: back to the object engine when the kernel cannot load).
VEC_BACKENDS = ["batched", KERNEL]


def _tiny(key: str):
    return {c.key: c for c in configs_for_scale("tiny")}[key]


def _net(cfg, kind: str, backend: str, check: bool = False) -> Network:
    topo = cfg.topology()
    return Network(topo, build_routing(*cfg.routing_spec(kind), topo, seed=0),
                   SimConfig(check=check, backend=backend))


def _stats_dict(stats) -> dict:
    return {name: getattr(stats, name) for name in stats.__slots__}


class TestNearSaturationEquivalence:
    """Both backends must agree exactly where contention is heaviest."""

    @pytest.mark.parametrize("vec_backend", [KERNEL])
    @pytest.mark.parametrize("kind", ["min", "ugal"])
    @pytest.mark.parametrize("load", [0.6, 0.95])
    def test_sweep_matches_object(self, kind, load, vec_backend):
        cfg = _tiny("sf-floor")
        results = {}
        for backend in ("object", vec_backend):
            net = _net(cfg, kind, backend)
            stats = net.run_synthetic(
                UniformRandom(net.topology.num_nodes), load=load,
                warmup_ns=300.0, measure_ns=1200.0, seed=1000, drain=True,
            )
            results[backend] = (
                _stats_dict(stats),
                net.stats.injected_total,
                net.stats.ejected_total,
                sum(nic.credit_stalls for nic in net.nics),
            )
        assert results["object"] == results[vec_backend]

    @pytest.mark.parametrize("vec_backend", [KERNEL])
    def test_inr_heavy_load_matches_object(self, vec_backend):
        # Indirect routes double the hop count and credit pressure.
        cfg = _tiny("mlfm")
        outs = []
        for backend in ("object", vec_backend):
            net = _net(cfg, "inr", backend)
            stats = net.run_synthetic(
                UniformRandom(net.topology.num_nodes), load=0.8,
                warmup_ns=300.0, measure_ns=1000.0, seed=7, drain=True,
            )
            outs.append((_stats_dict(stats), net.stats.ejected_total))
        assert outs[0] == outs[1]


class TestFiniteRunsEquivalence:
    @pytest.mark.parametrize("vec_backend", VEC_BACKENDS)
    @pytest.mark.parametrize("kind", ["min", "ugal"])
    def test_exchange_matches_object(self, kind, vec_backend):
        cfg = _tiny("sf-floor")
        results = []
        for backend in ("object", vec_backend):
            net = _net(cfg, kind, backend)
            res = net.run_exchange(
                AllToAll(net.topology.num_nodes, message_bytes=512)
            )
            results.append(
                {k: v for k, v in res.items() if k not in BACKEND_NEUTRAL_EXCLUDES}
            )
        assert results[0] == results[1]

    @pytest.mark.parametrize("vec_backend", VEC_BACKENDS)
    def test_workload_matches_object(self, vec_backend):
        cfg = _tiny("sf-floor")
        results = []
        for backend in ("object", vec_backend):
            net = _net(cfg, "ugal", backend)
            wl = ring_allgather(ranks=min(16, net.topology.num_nodes),
                                message_bytes=2048)
            res = run_workload(net, wl)
            results.append(
                {k: v for k, v in res.items() if k not in BACKEND_NEUTRAL_EXCLUDES}
            )
        assert results[0] == results[1]

    @needs_kernel
    def test_batched_executes_fewer_events(self):
        # The elision is the point: same physics, fewer heap events
        # (a kernel property: without it "batched" runs the object engine).
        cfg = _tiny("sf-floor")
        events = {}
        for backend in ("object", "batched"):
            net = _net(cfg, "min", backend)
            net.run_synthetic(
                UniformRandom(net.topology.num_nodes), load=0.4,
                warmup_ns=300.0, measure_ns=1200.0, seed=1, drain=True,
            )
            events[backend] = net.engine.events_executed
        assert events["batched"] < events["object"]


class TestCheckedBatchedRuns:
    @pytest.mark.parametrize("backend", VEC_BACKENDS)
    @pytest.mark.parametrize("seed", [0, 3])
    def test_unstructured_topology_audits_pass(self, seed, backend):
        # Random-ish structure off the paper's beaten path: MLFM with a
        # different height plus a SlimFly, both under the audit checker.
        topo = MLFM(4) if seed % 2 == 0 else SlimFly(5, "floor")
        net = Network(topo, MinimalRouting(topo, seed=seed),
                      SimConfig(check=True, backend=backend))
        net.run_synthetic(
            UniformRandom(topo.num_nodes), load=0.5,
            warmup_ns=300.0, measure_ns=1200.0, seed=seed, drain=True,
        )
        assert net.checker.audits > 0
        net.checker.verify_quiescent()
        assert net.stats.injected_total == net.stats.ejected_total

    def test_checker_counters_feed_cli_summary(self):
        # The CLI's --check summary reads these attributes.
        cfg = _tiny("sf-floor")
        net = _net(cfg, "min", "batched", check=True)
        net.run_synthetic(
            UniformRandom(net.topology.num_nodes), load=0.3,
            warmup_ns=300.0, measure_ns=600.0, seed=2, drain=True,
        )
        assert net.checker.injected == net.stats.injected_total
        assert net.checker.history.appended >= net.checker.injected


@pytest.mark.parametrize("backend", ["object", KERNEL])
class TestEngineAPI:
    """Both engines keep one scheduling API."""

    def _engine(self, backend):
        topo = MLFM(4)
        net = Network(topo, MinimalRouting(topo, seed=0),
                      SimConfig(backend=backend))
        return net.engine

    def test_schedule_and_ordering(self, backend):
        eng = self._engine(backend)
        seen = []
        eng.schedule(5.0, seen.append, "b")
        eng.schedule(1.0, seen.append, "a")
        eng.schedule_at(5.0, seen.append, "c")  # same time: seq breaks tie
        assert eng.pending == 3
        eng.run()
        assert seen == ["a", "b", "c"]
        assert eng.now == 5.0
        assert eng.pending == 0

    def test_schedule_at_past_raises(self, backend):
        eng = self._engine(backend)
        eng.schedule_at(10.0, lambda: None)
        eng.run()
        with pytest.raises(ValueError):
            eng.schedule_at(5.0, lambda: None)

    def test_schedule_rejects_negative_or_nan_delay(self, backend):
        # Such a delay would schedule into the past and run the clock
        # backwards (a NaN poisons it outright); both engines refuse it,
        # as schedule_at refuses a past time.
        for eng in (self._engine(backend), Engine()):
            eng.schedule_at(10.0, lambda: None)
            eng.run()
            for bad in (-1.0, -1e-9, float("-inf"), float("nan")):
                with pytest.raises(ValueError):
                    eng.schedule(bad, lambda: None)
                with pytest.raises(ValueError):
                    eng.schedule_at(eng.now + bad, lambda: None)
            assert eng.pending == 0
            eng.schedule(0.0, lambda: None)
            assert eng.run() == 1 and eng.now == 10.0

    def test_until_advances_clock_without_executing_future(self, backend):
        eng = self._engine(backend)
        seen = []
        eng.schedule_at(100.0, seen.append, "late")
        executed = eng.run(until=50.0)
        assert executed == 0 and seen == []
        assert eng.now == 50.0  # horizon advance, event still queued
        assert eng.pending == 1
        eng.run()
        assert seen == ["late"] and eng.now == 100.0

    def test_max_events_budget(self, backend):
        eng = self._engine(backend)
        seen = []
        for i in range(5):
            eng.schedule_at(float(i + 1), seen.append, i)
        assert eng.run(max_events=2) == 2
        assert seen == [0, 1]
        assert eng.run() == 3
        assert seen == [0, 1, 2, 3, 4]

    def test_clear_resets(self, backend):
        eng = self._engine(backend)
        eng.schedule_at(1.0, lambda: None)
        eng.clear()
        assert eng.pending == 0 and eng.now == 0.0
        assert eng.run() == 0

    def test_sparse_far_future_event(self, backend):
        # A far-future CALL waits in the kernel's heap while the clock
        # jumps a long gap to it.
        eng = self._engine(backend)
        seen = []
        eng.schedule_at(0.5, seen.append, "near")
        eng.schedule_at(1_000_000.0, seen.append, "far")
        eng.run()
        assert seen == ["near", "far"]
        assert eng.now == 1_000_000.0


class TestConfigValidation:
    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            SimConfig(backend="vectorised")

    @pytest.mark.parametrize("backend", ["batched", "kernel"])
    def test_backend_flows_through_orchestrate_config_dict(self, backend):
        from repro.orchestrate.job import sim_config_dict

        d = sim_config_dict(SimConfig(backend=backend))
        assert d["backend"] == backend
        assert SimConfig(**d).backend == backend
