"""Kernel-backend specifics: loading, graceful degradation, profile
stats and audit plumbing.

Bit-identity of the kernel backend is pinned by the golden conformance
suite (tests/test_golden_conformance.py) and the near-saturation
equivalence matrix (tests/test_vec_backend.py); this file covers what
those cannot: the build/load machinery, the forced-failure fallback to
the object engine, and the kernel-only observability surface
(``kernel_stats``, the escape split).
"""

from __future__ import annotations

import warnings
from pathlib import Path

import pytest

from repro.experiments import conformance
from repro.routing import MinimalRouting, UGALRouting
from repro.sim import Network, SimConfig
from repro.sim.engine import Engine
from repro.sim.invariants import InvariantChecker
from repro.sim.vec import kernel as kernel_mod
from repro.topology import SlimFly
from repro.traffic import UniformRandom

needs_kernel = pytest.mark.skipif(
    kernel_mod.load_kernel() is None,
    reason="compiled kernel unavailable (no compiler or REPRO_NO_KERNEL set)",
)


@pytest.fixture
def fresh_loader():
    """Reset the module-level load cache around a test, restoring the
    (possibly successful) cached attempt afterwards so test order
    doesn't matter."""
    saved = (kernel_mod._mod, kernel_mod._attempted, kernel_mod.load_error)
    kernel_mod._reset_for_tests()
    try:
        yield
    finally:
        kernel_mod._mod, kernel_mod._attempted, kernel_mod.load_error = saved


class TestGracefulDegradation:
    def test_forced_load_failure_warns_once_and_runs_object_engine(
        self, fresh_loader, monkeypatch
    ):
        # No compiler (forced here via the env gate) means ONE clear
        # warning and a working run on the object engine, not an error.
        monkeypatch.setenv("REPRO_NO_KERNEL", "1")
        topo = SlimFly(5)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            net = Network(topo, MinimalRouting(topo),
                          SimConfig(backend="kernel"))
        fallback = [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert len(fallback) == 1
        assert "falling back to the object engine" in str(fallback[0].message)
        assert net.backend_in_use == "object"
        assert type(net.engine) is Engine
        assert kernel_mod.load_error == "disabled by REPRO_NO_KERNEL"
        stats = net.run_synthetic(
            UniformRandom(topo.num_nodes), load=0.3,
            warmup_ns=200.0, measure_ns=400.0, seed=0, drain=True,
        )
        assert stats.ejected_packets > 0

    @pytest.mark.parametrize("case_key", ["sf-floor/ugal", "oft/inr"])
    def test_forced_load_failure_checked_run_gets_object_checker(
        self, fresh_loader, monkeypatch, case_key
    ):
        # The fallback is chosen before the routers are wired, so a
        # checked run gets the object engine's per-transition checker --
        # and still reproduces the goldens.
        monkeypatch.setenv("REPRO_NO_KERNEL", "1")
        golden = conformance.load_golden(str(
            Path(__file__).parent / "golden" / "conformance.json"))
        with pytest.warns(RuntimeWarning, match="object engine"):
            net = conformance._build(case_key, True, True, "kernel")
        assert net.backend_in_use == "object"
        assert type(net.checker) is InvariantChecker
        with pytest.warns(RuntimeWarning, match="object engine"):
            got = conformance.run_case(case_key, check=True, backend="kernel")
        problems = conformance.diff_fingerprints(
            {case_key: golden[case_key]}, {case_key: got})
        assert not problems, "\n".join(problems)

    def test_load_failure_is_cached_per_process(self, fresh_loader,
                                                monkeypatch):
        monkeypatch.setenv("REPRO_NO_KERNEL", "1")
        assert kernel_mod.load_kernel() is None
        first_error = kernel_mod.load_error
        # Clearing the env does not retry: one attempt per process.
        monkeypatch.delenv("REPRO_NO_KERNEL")
        assert kernel_mod.load_kernel() is None
        assert kernel_mod.load_error == first_error


@needs_kernel
class TestKernelEngine:
    def _net(self, **cfg) -> Network:
        topo = SlimFly(5)
        routing = UGALRouting(topo, seed=0)
        return Network(topo, routing, SimConfig(backend="kernel", **cfg))

    def test_backend_in_use_reports_kernel(self):
        net = self._net()
        assert net.backend_in_use == "kernel"
        assert type(net.engine).__name__ == "KernelEngine"

    def test_kernel_stats_expose_escape_split(self, monkeypatch):
        # The --profile satellite: in-kernel event counts, the
        # time/count split of every Python escape class, and the
        # fast-path counters showing per-packet work stayed in C.
        # (The CI no-fastpath leg exports the escape hatch globally;
        # this test is specifically about the fast path being live.)
        monkeypatch.delenv("REPRO_KERNEL_NO_FASTPATH", raising=False)
        net = self._net()
        net.run_synthetic(
            UniformRandom(net.topology.num_nodes), load=0.5,
            warmup_ns=300.0, measure_ns=1200.0, seed=1, drain=True,
        )
        s = net.engine.kernel_stats()
        assert s["events"] > 0
        assert s["runs"] >= 1
        assert set(s["escapes"]) == {
            "make_packet", "deliver", "call", "fault_divert", "stats_flush"}
        assert set(s["fast_path"]) == {"make_packet", "deliver"}
        # UGAL routing compiles to the C fast path: every injected
        # packet routes and lands without a per-packet Python escape.
        assert s["escapes"]["make_packet"]["count"] == 0
        assert s["escapes"]["deliver"]["count"] == 0
        assert (s["fast_path"]["make_packet"]["count"]
                == net.stats.injected_total)
        assert s["fast_path"]["deliver"]["count"] == net.stats.ejected_total
        assert s["escapes"]["fault_divert"]["count"] == 0
        # Cold paths still escape: the scheduled reset_utilization CALL
        # and the accumulator flushes it fences.
        assert s["escapes"]["call"]["count"] >= 1
        assert 0.0 < s["escape_ns"] < s["run_ns"]
        # Opcode counters sum to the events the engine reported.
        assert sum(s["op_counts"].values()) == s["events"]

    def test_no_fastpath_escape_hatch_restores_per_packet_escapes(
        self, monkeypatch
    ):
        # REPRO_KERNEL_NO_FASTPATH forces the per-packet escapes (the
        # fallback leg the conformance matrix parametrizes over).
        monkeypatch.setenv("REPRO_KERNEL_NO_FASTPATH", "1")
        net = self._net()
        net.run_synthetic(
            UniformRandom(net.topology.num_nodes), load=0.5,
            warmup_ns=300.0, measure_ns=1200.0, seed=1, drain=True,
        )
        s = net.engine.kernel_stats()
        assert s["fast_path"]["make_packet"]["count"] == 0
        assert s["fast_path"]["deliver"]["count"] == 0
        assert s["escapes"]["make_packet"]["count"] > 0
        assert s["escapes"]["deliver"]["count"] == net.stats.ejected_total

    def test_iter_pending_yields_engine_format_records(self):
        # BatchedChecker.audit classifies pending records by integer op;
        # the kernel's heap dump must use the same 6-tuple layout,
        # including CALL records carrying their callable and args.
        net = self._net()
        eng = net.engine
        marker = lambda: None  # noqa: E731
        eng.schedule(5.0, marker, 1, 2)
        eng._seq += 1
        eng._push(3.0, eng._seq, 0, 7, 1, 0)  # a RECV-shaped record
        recs = sorted(eng.iter_pending())
        assert len(recs) == 2 and eng.pending == 2
        t, s, op, a, b, c = recs[0]
        assert (t, op, a, b, c) == (3.0, 0, 7, 1, 0)
        t, s, op, fn, args, _ = recs[1]
        assert (t, op, fn, args) == (5.0, 6, marker, (1, 2))
        eng.clear()
        assert eng.pending == 0

    def test_checked_kernel_run_audits(self):
        # The audit-based checker runs over kernel state exactly as it
        # does over batched state (same SoA arrays, same iter_pending).
        net = self._net(check=True)
        net.run_synthetic(
            UniformRandom(net.topology.num_nodes), load=0.5,
            warmup_ns=300.0, measure_ns=1200.0, seed=3, drain=True,
        )
        assert net.checker.audits > 0
        net.checker.verify_quiescent()
        assert net.stats.injected_total == net.stats.ejected_total

    def test_callback_exception_propagates_and_engine_survives(self):
        # An exception inside a CALL escape must surface to the caller
        # with the clock/sequence state written back (the C loop's
        # ``finally``), leaving the engine usable.
        net = self._net()
        eng = net.engine

        def boom():
            raise RuntimeError("scheduled failure")

        seen = []
        eng.schedule(1.0, seen.append, "before")
        eng.schedule(2.0, boom)
        eng.schedule(3.0, seen.append, "after")
        with pytest.raises(RuntimeError, match="scheduled failure"):
            eng.run()
        assert seen == ["before"]
        assert eng.now == 2.0  # failed event's time was written back
        assert eng.pending == 1  # the 'after' event survived the error
        eng.run()
        assert seen == ["before", "after"]
