"""Kernel-backend specifics: loading, graceful degradation, profile
stats and audit plumbing.

Bit-identity of the kernel backend is pinned by the golden conformance
suite (tests/test_golden_conformance.py) and the near-saturation
equivalence matrix (tests/test_vec_backend.py); this file covers what
those cannot: the build/load machinery, the forced-failure fallback to
the object engine, the kernel-only observability surface
(``kernel_stats``: the escape split, where the event set's pushes went
and the sampled loop time), and the event set's pop order.
"""

from __future__ import annotations

import gc
import sys
import warnings
from pathlib import Path

import pytest

from repro.experiments import conformance
from repro.routing import MinimalRouting, UGALRouting
from repro.sim import Network, SimConfig
from repro.sim.engine import Engine
from repro.sim.invariants import InvariantChecker
from repro.sim.vec import kernel as kernel_mod
from repro.topology import MLFM, SlimFly
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
            net = conformance._build(case_key, True, "kernel")
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

    def test_kernel_stats_expose_escape_split(self):
        # The --profile satellite: in-kernel event counts, the
        # time/count split of every Python escape class, and the
        # fast-path counters showing per-packet work stayed in C.
        net = self._net()
        net.run_synthetic(
            UniformRandom(net.topology.num_nodes), load=0.5,
            warmup_ns=300.0, measure_ns=1200.0, seed=1, drain=True,
        )
        s = net.engine.kernel_stats()
        assert s["events"] > 0
        assert s["runs"] >= 1
        assert set(s["escapes"]) == {
            "make_packet", "deliver", "call", "stats_flush", "route_fill",
            "msg_done"}
        assert set(s["fast_path"]) == {"make_packet", "deliver"}
        # UGAL routing compiles to the C fast path: every injected
        # packet routes and lands without a per-packet Python escape.
        assert s["escapes"]["make_packet"]["count"] == 0
        assert s["escapes"]["deliver"]["count"] == 0
        # ... and every route comes from the kernel's own route table:
        # on a fault-free diameter-two Slim Fly nothing calls into the
        # RouteCache, which stays empty.
        assert s["escapes"]["route_fill"]["count"] == 0
        cache = net.routing.cache.stats()
        assert cache["minimal_pairs"] == 0
        assert cache["composed_routes"] == 0
        assert (s["fast_path"]["make_packet"]["count"]
                == net.stats.injected_total)
        assert s["fast_path"]["deliver"]["count"] == net.stats.ejected_total
        assert s["detours"] == 0  # no failed link
        assert s["escapes"]["msg_done"]["count"] == 0  # no closed loop
        # Cold paths still escape: the scheduled reset_utilization CALL
        # and the accumulator flushes it fences.
        assert s["escapes"]["call"]["count"] >= 1
        assert 0.0 < s["escape_ns"] < s["run_ns"]
        # Opcode counters sum to the events the engine reported.
        assert sum(s["op_counts"].values()) == s["events"]

    def test_best_minimal_selection_routes_every_packet_in_python(self):
        # The kernel has no C copy of MinimalRouting's "best" selection
        # (the candidate whose first output queue is shortest): every
        # send takes the make_packet escape, whose Python rule reads the
        # kernel's queue lengths, and the run is the object engine's.
        # On MLFM h=4 a same-column pair has four minimal paths.
        topo = MLFM(4)
        runs = {}
        for backend in ("object", "kernel"):
            net = Network(topo, MinimalRouting(topo, selection="best", seed=0),
                          SimConfig(backend=backend))
            stats = net.run_synthetic(
                UniformRandom(topo.num_nodes), load=0.9,
                warmup_ns=300.0, measure_ns=1200.0, seed=1, drain=True,
            )
            runs[backend] = (
                {name: getattr(stats, name) for name in stats.__slots__},
                list(net.stats.latencies),
            )
        assert runs["kernel"] == runs["object"]
        s = net.engine.kernel_stats()
        assert s["fast_path"]["make_packet"]["count"] == 0
        assert (s["escapes"]["make_packet"]["count"]
                == net.stats.injected_total > 0)
        # Deliveries, with no listener, still stay in C.
        assert s["fast_path"]["deliver"]["count"] == net.stats.ejected_total
        assert s["escapes"]["deliver"]["count"] == 0

    def test_kernel_stats_attribute_the_event_set(self):
        # The loop's ledger: every push lands on a delay lane or on the
        # heap, and the sampled time split names every opcode.
        net = self._net()
        net.run_synthetic(
            UniformRandom(net.topology.num_nodes), load=0.9,
            warmup_ns=300.0, measure_ns=1200.0, seed=1, drain=True,
        )
        s = net.engine.kernel_stats()
        q = s["queue"]
        assert set(q["lanes"]) == {"SER", "LINK", "SER+LINK", "SWITCH"}
        assert sum(q["lanes"].values()) == q["lane_pushes"]
        assert (q["lane_pushes"] + q["heap_pushes"]
                == s["events"] + net.engine.pending)
        assert q["lane_pushes"] > (q["lane_pushes"] + q["heap_pushes"]) / 2
        assert 0 < q["heap_hwm"] <= q["heap_pushes"]
        smp = s["sampled"]
        assert set(smp["ops"]) == set(s["op_counts"])
        assert smp["count"] == sum(o["count"] for o in smp["ops"].values())
        # Each run samples the last event of every 64 it executes.
        assert (s["events"] / smp["every"] - s["runs"] <= smp["count"]
                <= s["events"] / smp["every"])
        for name, o in smp["ops"].items():
            assert o["count"] <= s["op_counts"][name]
        assert smp["pop_ns"] > 0.0

    @pytest.mark.parametrize("physics", [
        {},
        # Coinciding lanes (SER == SER+LINK), zero-delay ENTERs, and a
        # one-packet-per-VC buffer whose credit stalls wake on LINK.
        {"link_latency_ns": 0.0, "switch_latency_ns": 0.0,
         "buffer_bytes_per_port": 1024},
    ])
    def test_event_set_pops_the_least_pending_key(self, monkeypatch,
                                                   physics):
        # Step a saturated run one event at a time: each executed key is
        # the least key of the snapshot taken before it, and the pending
        # count and next time agree with that snapshot.  Stepping binds
        # and unbinds the fast path per event, so the run's statistics
        # must also match an unstepped run's.
        steps = 3000

        def run(stepped):
            net = self._net(**physics)
            eng = net.engine
            k = eng.kernel
            inner = eng.run
            checked = []

            def stepping_run(until=None, max_events=None):
                executed = 0
                while len(checked) < steps:
                    snap = k.events()
                    if not snap:
                        break
                    least = min((t, s) for t, s, *_ in snap)
                    if until is not None and least[0] > until:
                        break
                    assert k.pending() == len(snap)
                    assert k.peek_time() == least[0]
                    assert k.run(until, 1, eng._fastpath_spec()) == 1
                    assert (k.now, k.cs) == least
                    checked.append(least)
                    executed += 1
                return executed + inner(until, max_events)

            if stepped:
                monkeypatch.setattr(eng, "run", stepping_run)
            stats = net.run_synthetic(
                UniformRandom(net.topology.num_nodes), load=0.9,
                warmup_ns=200.0, measure_ns=600.0, seed=2, drain=True,
            )
            assert len(checked) == (steps if stepped else 0)
            return {name: getattr(stats, name) for name in stats.__slots__}

        assert run(stepped=True) == run(stepped=False)

    def test_iter_pending_yields_engine_format_records(self):
        # KernelChecker.audit classifies pending records by integer op;
        # the kernel's event dump must use the same 6-tuple layout,
        # including CALL records carrying their callable and args.
        net = self._net()
        eng = net.engine
        st = eng.st
        marker = lambda: None  # noqa: E731
        eng.schedule(5.0, marker, 1, 2)
        # An idle NIC sends a one-packet message at once: the packet's
        # arrival at its router's injection input is a pending RECV.
        net.nics[0].submit(1, 256)
        recs = sorted(eng.iter_pending(), key=lambda r: r[:2])
        assert len(recs) == 2 and eng.pending == 2
        (t, s, op, fn, args, _), (t2, s2, op2, a, b, c) = recs
        assert (t, s, op, fn, args) == (5.0, 1, 6, marker, (1, 2))
        assert (t2, op2, a, b) == (st.SL, 0, st.n_in[0], 0)
        assert s2 == eng.kernel.seq > s
        assert eng.kernel.next_port(c)[0] == 0  # not yet at its first hop
        assert eng.kernel.memory()["slots_live"] == 1
        # Nothing resets a kernel: freed with its network, it drops the
        # pending CALL's reference to its callable.
        del recs, fn
        held = sys.getrefcount(marker)
        del net, eng
        gc.collect()
        assert sys.getrefcount(marker) == held - 1

    def test_checked_kernel_run_audits(self):
        # The audit-based checker reconciles the kernel's state arrays
        # with its pending events (read through iter_pending).
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


def _listened_run(net):
    """A short uniform load on *net*, drained; returns its WindowStats.
    Its first scheduled call (the warm-up's end) comes long after the
    first deliveries."""
    return net.run_synthetic(
        UniformRandom(net.topology.num_nodes), load=0.5, warmup_ns=1_000.0,
        measure_ns=600.0, seed=5, drain=True,
    )


def _register(net, when, fn):
    """Register listener *fn* before the run, or from the first send's
    make_packet (which a wrapper turns into a Python escape), mid-run
    on the kernel."""
    if when == "run":
        net.add_delivery_listener(fn)
        return
    make_packet = net.make_packet

    def registering_make_packet(*args):
        if fn not in net._delivery_listeners:
            net.add_delivery_listener(fn)
        return make_packet(*args)

    net.make_packet = registering_make_packet


@needs_kernel
def test_raising_listener_propagates_after_its_slot_is_recycled():
    # A listener registered mid-run (from a make_packet escape) raises
    # at its 100th delivery.  The error leaves the run at the same
    # simulated time, after the same deliveries, as on the object
    # engine, and the kernel had recycled the delivered packet's slot
    # and accounted its delivery before the listener ran: live slots
    # are the packets injected and not yet delivered, inside the
    # listener and after.
    topo = SlimFly(5)

    def run(backend):
        net = Network(topo, UGALRouting(topo, seed=0),
                      SimConfig(backend=backend))
        calls = []

        def listener(pkt):
            calls.append(pkt.pid)
            if backend == "kernel":
                live = net.engine.memory_stats()["slots_live"]
                assert live == (net.stats.injected_total
                                - net.stats.ejected_total)
            if len(calls) == 100:
                raise RuntimeError("listener failure")

        _register(net, "make_packet", listener)
        with pytest.raises(RuntimeError, match="listener failure"):
            _listened_run(net)
        st = net.stats
        return net, (net.engine.now, calls, st.injected_total,
                     st.ejected_total)

    _, ref = run("object")
    net, got = run("kernel")
    assert got == ref
    assert (net.engine.memory_stats()["slots_live"]
            == net.stats.injected_total - net.stats.ejected_total > 0)


@needs_kernel
@pytest.mark.parametrize("when", ["run", "make_packet"])
def test_listener_registered_during_a_delivery_sees_that_packet(when):
    # The first listener registers a second one at its tenth delivery:
    # the second is called for that same packet and every later one,
    # in registration order, on both engines alike.
    topo = SlimFly(5)

    def run(backend):
        net = Network(topo, UGALRouting(topo, seed=0),
                      SimConfig(backend=backend))
        calls = []

        def second(pkt):
            calls.append(("second", pkt.pid))

        def first(pkt):
            calls.append(("first", pkt.pid))
            if len(calls) == 10:
                net.add_delivery_listener(second)

        _register(net, when, first)
        stats = _listened_run(net)
        return calls, stats.mean_latency_ns, stats.ejected_packets

    ref = run("object")
    got = run("kernel")
    assert got == ref
    calls = got[0]
    assert calls[9][0] == "first" and calls[10] == ("second", calls[9][1])

