"""Runtime invariant checker (repro.sim.invariants).

Two halves: clean simulations of every flavour must pass the checker
with identical physics, and deliberately injected faults -- corrupted
credits, tampered counters, illegal VC assignments, stuck links -- must
each be caught with a structured report naming the offending
router/port/VC.
"""

from __future__ import annotations

import pytest

from repro.routing import MinimalRouting, UGALRouting
from repro.routing.base import Route
from repro.routing.vc import HopIndexVC, PhaseVC
from repro.sim import InvariantViolation, Network, SimConfig
from repro.sim.invariants import CheckedNIC, CheckedRouter
from repro.sim.trace import EventRing
from repro.sim.vec.kernel import load_kernel
from repro.traffic import AllToAll, UniformRandom
from repro.workload import ring_allreduce

CHECKED = SimConfig(check=True)


def checked_net(topo, routing=None):
    return Network(topo, routing or MinimalRouting(topo), CHECKED)


needs_kernel = pytest.mark.skipif(
    load_kernel() is None,
    reason="compiled kernel unavailable (no compiler or REPRO_NO_KERNEL set)",
)


def bad_vc_routing(topo):
    """Minimal routing with every hop relabelled onto VC 0."""
    real = MinimalRouting(topo)

    class BadVCRouting:
        num_vcs = real.num_vcs
        vc_policy = real.vc_policy

        def route(self, src, dst, congestion):
            r = real.route(src, dst, congestion)
            return Route(routers=r.routers, vcs=(0,) * (len(r.routers) - 1),
                         kind=r.kind, intermediate=r.intermediate,
                         ports=r.ports)

    return BadVCRouting()


def lost_routing(topo):
    """Minimal routing toward the router after the destination's."""
    real = MinimalRouting(topo)

    class LostRouting:
        num_vcs = real.num_vcs
        vc_policy = real.vc_policy

        def route(self, src, dst, congestion):
            wrong = (dst + 1) % topo.num_routers
            return real.route(src, wrong, congestion)

    return LostRouting()


def rejected_at_injection(topo, routing, backend):
    """The violation a checked run on *backend* raises for *routing*."""
    net = Network(topo, routing, SimConfig(check=True, backend=backend))
    assert net.backend_in_use == backend
    with pytest.raises(InvariantViolation) as excinfo:
        net.run_synthetic(UniformRandom(topo.num_nodes), load=0.2,
                          warmup_ns=200, measure_ns=400, seed=0)
    return excinfo.value


# -- clean runs: checker on, nothing to report --------------------------------


class TestCleanRuns:
    def test_wiring(self, sf5):
        net = checked_net(sf5)
        assert net.checker is not None
        assert all(isinstance(r, CheckedRouter) for r in net.routers)
        assert all(isinstance(n, CheckedNIC) for n in net.nics)
        unchecked = Network(sf5, MinimalRouting(sf5))
        assert unchecked.checker is None
        assert not any(isinstance(r, CheckedRouter) for r in unchecked.routers)

    def test_synthetic_drains_quiescent(self, sf5):
        net = checked_net(sf5)
        stats = net.run_synthetic(UniformRandom(sf5.num_nodes), load=0.4,
                                  warmup_ns=300, measure_ns=1_200, seed=3,
                                  drain=True)
        assert stats.ejected_packets > 0
        assert net.checker.injected == net.checker.delivered > 0
        assert not net.checker.location  # nothing left in flight
        assert net.checker.audits >= 2  # watchdog ticked at least once

    def test_synthetic_physics_identical_with_checker(self, mlfm4):
        def run(check):
            net = Network(mlfm4, UGALRouting(mlfm4), SimConfig(check=check))
            s = net.run_synthetic(UniformRandom(mlfm4.num_nodes), load=0.5,
                                  warmup_ns=300, measure_ns=1_200, seed=9)
            return (s.throughput, s.mean_latency_ns, s.p99_latency_ns,
                    s.ejected_packets, s.kind_counts)

        assert run(False) == run(True)

    def test_exchange_verified(self, oft4):
        net = checked_net(oft4)
        res = net.run_exchange(AllToAll(oft4.num_nodes, 512))
        assert res["completion_ns"] > 0
        assert not net.checker.location

    def test_workload_verified(self, sf5):
        net = checked_net(sf5)
        res = net.run_workload(ring_allreduce(16, 2_048))
        assert res["completion_ns"] > 0
        assert not net.checker.location

    @pytest.mark.parametrize("backend", [
        "object", pytest.param("kernel", marks=needs_kernel),
    ])
    def test_checker_and_user_listener_see_every_delivery(self, sf5, backend):
        # The checker's delivery check is the network's first delivery
        # listener, not a replacement of Network.deliver: it, a user
        # listener and the statistics all count every delivery.
        net = Network(sf5, MinimalRouting(sf5), SimConfig(check=True, backend=backend))
        seen = []
        net.add_delivery_listener(seen.append)
        net.run_synthetic(UniformRandom(sf5.num_nodes), load=0.4,
                          warmup_ns=300, measure_ns=1_200, seed=3, drain=True)
        assert "deliver" not in vars(net)
        assert net._delivery_listeners == [net.checker.on_deliver, seen.append]
        assert net.checker.delivered == len(seen) == net.stats.ejected_total > 0

    def test_watchdog_terminates(self, sf5):
        # The watchdog stops rescheduling once the network is empty, so
        # a drained run leaves an empty event heap (no immortal timers).
        net = checked_net(sf5)
        net.run_synthetic(UniformRandom(sf5.num_nodes), load=0.3,
                          warmup_ns=200, measure_ns=600, seed=1, drain=True)
        assert net.engine.pending == 0
        assert not net.checker._watchdog_running


# -- injected faults: each must be caught, named and explained -----------------


class TestInjectedFaults:
    def run_corrupted(self, topo, corrupt, at_ns=900.0, load=0.4):
        net = checked_net(topo)
        net.engine.schedule_at(at_ns, corrupt, net)
        with pytest.raises(InvariantViolation) as excinfo:
            net.run_synthetic(UniformRandom(topo.num_nodes), load=load,
                              warmup_ns=300, measure_ns=1_500, seed=5,
                              drain=True)
        return excinfo.value

    def test_phantom_credit_names_router_port_vc(self, sf5):
        # The acceptance-criteria fault: a corrupted credit counter.
        def corrupt(net):
            net.routers[2].out[1].credits[0] += 1

        err = self.run_corrupted(sf5, corrupt)
        assert err.rule == "credit-loop"
        assert (err.router, err.port, err.vc) == (2, 1, 0)
        report = err.report()
        assert "router=2" in report and "port=1" in report and "vc=0" in report
        assert "expected" in report  # states the capacity it should sum to
        assert "router[2].out[1]" in report  # snapshot of the port state
        assert "last" in report and "events" in report  # recent history

    def test_lost_credit(self, sf5):
        def corrupt(net):
            net.routers[0].out[0].credits[1] -= 1

        err = self.run_corrupted(sf5, corrupt)
        assert err.rule == "credit-loop"
        assert (err.router, err.port, err.vc) == (0, 0, 1)

    def test_vanished_packet_breaks_conservation(self, sf5):
        # A packet silently dropped from an output queue with the
        # counters "kept consistent" -- the signature of a buggy kernel
        # rewrite -- is caught by the registry audit.
        def corrupt(net):
            for router in net.routers:
                for out in router.out:
                    for vc, q in enumerate(out.oq):
                        if q:
                            q.popleft()
                            out.oq_occ[vc] -= 1
                            out.queued -= 1
                            return
            raise AssertionError("no buffered packet found to drop")

        err = self.run_corrupted(sf5, corrupt, load=0.6)
        assert err.rule == "conservation"

    def test_tampered_queued_counter(self, sf5):
        # `queued` feeds UGAL-L's congestion signal; drift is caught by
        # the audit even though it breaks no packet movement.
        def corrupt(net):
            net.routers[3].out[0].queued += 1

        err = self.run_corrupted(sf5, corrupt)
        assert err.rule == "conservation"
        assert (err.router, err.port) == (3, 0)
        assert "congestion signal" in err.message

    def test_tampered_oq_occupancy(self, sf5):
        def corrupt(net):
            net.routers[1].out[2].oq_occ[0] += 1

        err = self.run_corrupted(sf5, corrupt)
        assert err.rule in ("conservation", "credit-loop")
        assert err.router == 1 and err.port == 2

    def test_tampered_stats(self, sf5):
        def corrupt(net):
            net.stats.injected_total += 1

        err = self.run_corrupted(sf5, corrupt)
        assert err.rule == "conservation"
        assert "StatsCollector" in err.message

    def test_stuck_link_reported_as_starvation(self, sf5, monkeypatch):
        # Links that never free again (lost wake-up events): traffic
        # jams, nothing moves, and the watchdog must convert the silent
        # hang into a report with a buffer/credit snapshot.
        monkeypatch.setattr(CheckedRouter, "_link_free", lambda self, out: None)
        net = checked_net(sf5)
        with pytest.raises(InvariantViolation) as excinfo:
            net.run_synthetic(UniformRandom(sf5.num_nodes), load=0.6,
                              warmup_ns=200, measure_ns=800, seed=2,
                              drain=True)
        err = excinfo.value
        assert err.rule == "starvation"
        assert "no simulator progress" in err.message
        assert err.snapshot["in_flight_by_router"]  # the dumped state
        assert "pending_events" in err.snapshot

    def test_illegal_vc_assignment_rejected_at_injection(self, sf5):
        # A routing that violates the hop-index deadlock-avoidance rule
        # (all hops on VC 0) must be refused before the packet enters
        # the network.
        err = rejected_at_injection(sf5, bad_vc_routing(sf5), "object")
        assert err.rule == "vc-legality"
        assert "hop-indexed" in err.message

    @needs_kernel
    def test_illegal_vc_assignment_rejected_at_injection_kernel(self, sf5):
        # The kernel's checker applies the same route rules.
        err = rejected_at_injection(sf5, bad_vc_routing(sf5), "kernel")
        assert err.rule == "vc-legality"
        assert "hop-indexed" in err.message

    def test_detour_route_rejected(self, sf5):
        # A route whose final router is not the destination's router.
        err = rejected_at_injection(sf5, lost_routing(sf5), "object")
        assert err.rule == "route-legality"

    @needs_kernel
    def test_detour_route_rejected_kernel(self, sf5):
        err = rejected_at_injection(sf5, lost_routing(sf5), "kernel")
        assert err.rule == "route-legality"

    def test_latency_floor(self, sf5):
        # Unit-level: a delivery faster than the zero-load floor of its
        # hop count is physically impossible (lost serialization or
        # switch delay) and must be flagged.
        net = checked_net(sf5)
        pkt = net.make_packet(0, 1, 256, None, 0.0)
        pkt.send_time = net.engine.now  # "delivered" with zero elapsed time
        net.checker.location[pkt.pid] = (("eject", pkt.routers[-1], 0), pkt)
        with pytest.raises(InvariantViolation) as excinfo:
            net.checker.on_deliver(pkt)
        assert excinfo.value.rule == "latency-floor"
        assert "zero-load floor" in excinfo.value.message


# -- building blocks ----------------------------------------------------------


class TestEventRing:
    def test_bounded_with_visible_truncation(self):
        ring = EventRing(capacity=4)
        for i in range(10):
            ring.append(float(i), f"e{i}")
        assert len(ring) == 4
        assert ring.appended == 10
        assert ring.tail() == [(6.0, "e6"), (7.0, "e7"), (8.0, "e8"), (9.0, "e9")]
        assert ring.tail(2) == [(8.0, "e8"), (9.0, "e9")]

    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            EventRing(capacity=0)


class TestVCPolicyLegality:
    def test_hop_index_accepts_its_own_assignments(self):
        policy = HopIndexVC()
        assert policy.check_legal((0, 1), "minimal") is None
        assert policy.check_legal((0, 1, 2, 3), "indirect") is None
        assert policy.check_legal((), "minimal") is None

    def test_hop_index_rejects_disorder_and_overbudget(self):
        policy = HopIndexVC()
        assert "strictly increasing" in policy.check_legal((0, 0), "minimal")
        assert "strictly increasing" in policy.check_legal((1, 0), "minimal")
        assert "budget" in policy.check_legal((0, 1, 2), "minimal")

    def test_phase_accepts_its_own_assignments(self):
        policy = PhaseVC()
        assert policy.check_legal((0, 0), "minimal") is None
        assert policy.check_legal((0, 1), "indirect") is None
        assert policy.check_legal((0, 0, 1, 1), "indirect") is None

    def test_phase_rejects_illegal_sequences(self):
        policy = PhaseVC()
        assert "0 or 1" in policy.check_legal((0, 2), "indirect")
        assert "VC 0" in policy.check_legal((0, 1), "minimal")
        assert "non-decreasing" in policy.check_legal((1, 0), "indirect")


class TestViolationReport:
    def test_fields_and_formatting(self):
        err = InvariantViolation(
            "credit-loop", "credits do not sum", router=7, port=2, vc=1,
            pid=42, time_ns=123.5, snapshot={"credits": [1, 2]},
            history=((120.0, "tx pid=42"),),
        )
        assert err.rule == "credit-loop"
        report = err.report()
        assert "credit-loop" in report
        assert "router=7" in report and "port=2" in report
        assert "vc=1" in report and "pid=42" in report
        assert "t=123.5ns" in report
        assert "credits: [1, 2]" in report
        assert "tx pid=42" in report
        # The exception's str() is the report, so an uncaught violation
        # is fully actionable straight from the traceback.
        assert str(err) == report
