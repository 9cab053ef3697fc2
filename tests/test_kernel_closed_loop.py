"""The closed loop on the compiled kernel.

A :class:`~repro.workload.driver.WorkloadDriver` arms the network's
message countdown (``Network.watch_messages``).  The kernel counts it
down in C on every delivery, whether or not delivery listeners (the
tracer, message tracking and the checker are listeners too) observe
it, writes each completion time to the countdown's table and calls back
into Python only for a completed message that releases others (the
``msg_done`` escape).  These tests rerun
``tests/test_workload.py::TestDriver``'s cases on the kernel, check the
escape ledger of halo runs with and without releasing messages and
listeners, hold the C countdown to the object engine's in
``Network.deliver`` packet for packet, completion times, callbacks and
group-by-kind counts included, check that the kernel refuses tables
and group ids it cannot index, and check that the kernel never calls
the object engine's accounting (``Network.deliver``,
``record_inject``, ``record_eject``).
"""

from __future__ import annotations

from array import array

import pytest

from repro.cli import main
from repro.routing import MinimalRouting, UGALRouting
from repro.sim import Network, SimConfig
from repro.sim.vec.kernel import load_kernel
from repro.traffic import NearestNeighbor3D
from repro.workload import (
    Workload,
    build_workload,
    phased_alltoall,
    ring_allgather,
    ring_allreduce,
)

pytestmark = pytest.mark.skipif(
    load_kernel() is None,
    reason="compiled kernel unavailable (no compiler or REPRO_NO_KERNEL set)",
)

KERNEL = SimConfig(backend="kernel")


def escapes(net) -> dict:
    return {name: e["count"]
            for name, e in net.engine.kernel_stats()["escapes"].items()}


class TestKernelDriver:
    """``TestDriver``'s cases on the kernel, with no listener."""

    def test_local_messages_complete_and_release(self, sf5):
        w = Workload("ctl")
        gate = w.add(0, 0, 0)  # pure control node
        w.add(0, 1, 512, deps=[gate])
        res = Network(sf5, MinimalRouting(sf5, seed=1), KERNEL).run_workload(w)
        assert res["messages"] == 2
        assert res["packets"] == 2  # 512 B = 2 packets; control moved none

    def test_dependencies_gate_release(self, sf5):
        single = Workload("one")
        single.add(0, 1, 256)
        chain = Workload("chain")
        prev = None
        for i in range(5):
            prev = chain.add(i % 2, (i + 1) % 2, 256,
                             deps=[prev] if prev is not None else [])
        t1 = Network(sf5, MinimalRouting(sf5, seed=1), KERNEL).run_workload(single)
        t5 = Network(sf5, MinimalRouting(sf5, seed=1), KERNEL).run_workload(chain)
        assert t5["completion_ns"] == pytest.approx(5 * t1["completion_ns"], rel=0.01)

    def test_incomplete_run_raises(self, sf5):
        net = Network(sf5, MinimalRouting(sf5, seed=1), KERNEL)
        with pytest.raises(RuntimeError, match="incomplete"):
            net.run_workload(ring_allreduce(16, 4096), max_events=10)

    def test_network_reuse_rejected(self, sf5):
        net = Network(sf5, MinimalRouting(sf5, seed=1), KERNEL)
        net.run_workload(ring_allgather(8, 256))
        with pytest.raises(RuntimeError, match="already ran"):
            net.run_workload(ring_allgather(8, 256))

    def test_per_phase_kind_counts_cover_all_packets(self, sf5):
        net = Network(sf5, UGALRouting(sf5, cost_mode="sf", c_sf=1.0,
                                       num_indirect=4, seed=2), KERNEL)
        res = net.run_workload(phased_alltoall(24, 512))
        counted = sum(
            c for ph in res["phases"].values() for c in ph["kind_counts"].values()
        )
        assert counted == res["packets"] == 24 * 23 * 2
        assert {k for ph in res["phases"].values() for k in ph["kind_counts"]} \
            == {"minimal", "indirect"}


def test_halo_counts_down_in_c(sf5):
    # Every delivery stays on the C fast path; Python is entered once
    # per completed message that the second iteration depends on (the
    # first iteration's), and never per packet.
    w = build_workload("halo3d", sf5.num_nodes, 1_000, iterations=2)
    releasing = sum(1 for deps in w.dependents().values() if deps)
    assert releasing == w.num_messages // 2 == 900
    net = Network(sf5, UGALRouting(sf5, seed=0), KERNEL)
    res = net.run_workload(w)
    esc = escapes(net)
    fast = net.engine.kernel_stats()["fast_path"]
    assert esc["deliver"] == 0
    assert fast["deliver"]["count"] == res["packets"] == 7_200
    assert esc["msg_done"] == releasing
    assert net.engine.memory_stats()["msg_watched"] == w.num_messages


def test_one_iteration_halo_calls_no_python_per_message(sf5):
    # Every message of one halo iteration is a sink: the countdown
    # writes its completion time in C and nothing escapes for it, and
    # the result is the object engine's.
    w = build_workload("halo3d", sf5.num_nodes, 1_000)
    ref = Network(sf5, UGALRouting(sf5, seed=0)).run_workload(w)
    net = Network(sf5, UGALRouting(sf5, seed=0), KERNEL)
    res = net.run_workload(w)
    for field in ("completion_ns", "packets", "phases"):
        assert res[field] == ref[field]
    esc = escapes(net)
    assert esc["msg_done"] == esc["deliver"] == 0
    assert esc["call"] == 1  # the root release


def test_sampled_split_skips_the_runs_first_event(sf5):
    # The halo's only CALL is the root release, the run's first event:
    # the sampled split no longer times it.
    w = build_workload("halo3d", sf5.num_nodes, 1_000)
    net = Network(sf5, UGALRouting(sf5, seed=0), KERNEL)
    net.run_workload(w)
    s = net.engine.kernel_stats()
    assert s["op_counts"]["CALL"] == 1
    assert s["sampled"]["ops"]["CALL"]["count"] == 0
    assert s["sampled"]["count"] == s["events"] // s["sampled"]["every"]


def test_workload_profile_prints_the_completion_escape(capsys):
    rc = main([
        "workload", "sf:q=4", "--collective", "ring-allreduce",
        "--routing", "ugal", "--sizes", "1024", "--backend", "kernel",
        "--profile",
    ])
    assert rc == 0
    err = capsys.readouterr().err
    assert "escape msg_done:" in err
    assert "escape deliver:" not in err


def test_halo_profile_prints_no_completion_escape(capsys):
    rc = main([
        "workload", "sf:q=4", "--collective", "halo3d", "--routing", "ugal",
        "--sizes", "1024", "--backend", "kernel", "--profile",
    ])
    assert rc == 0
    err = capsys.readouterr().err
    assert "kernel escape split" in err
    assert "escape msg_done:" not in err


def _countdown_run(topo, backend: str, listener: bool):
    """Packets a countdown must and must not count: four watched
    messages -- 0 and 2 release others, 1 and 3 do not, 2 has no
    packets; 0 and 3 are group 1, 1 and 2 group 0 -- plus packets with
    no message id and with two ids outside the table (the largest id
    ``submit`` takes among them), and one packet more than message 1
    needs.  Returns the callbacks, the completion-time table and the
    group-by-kind table."""
    net = Network(topo, MinimalRouting(topo, seed=3), SimConfig(backend=backend))
    done = []
    times, kinds = net.watch_messages(
        [3, 1, 0, 2], [True, False, True, False], [1, 0, 0, 1],
        lambda mid: done.append((mid, net.engine.now)),
    )
    if listener:
        net.add_delivery_listener(lambda pkt: None)
    nics = net.nics
    nics[0].submit(9, 700, 0)  # 256 + 256 + 188
    nics[3].submit(40, 300, 3)  # 256 + 44
    nics[4].submit(17, 100, None)
    nics[5].submit(17, 100, 4)
    nics[6].submit(17, 100, 2**63 - 1)
    nics[8].submit(30, 64, 1)
    net.engine.schedule(2_000.0, nics[2].submit, 30, 64, 1)  # 1 is complete
    net.engine.run()
    return done, list(times), kinds.tolist()


@pytest.mark.parametrize("backend,listener", [
    ("kernel", False),  # the C countdown, no Python per delivery
    ("kernel", True),   # the C countdown after the kernel calls a listener
])
def test_c_and_python_countdowns_agree(sf5, backend, listener):
    ref = _countdown_run(sf5, "object", listener=False)
    got = _countdown_run(sf5, backend, listener)
    assert got == ref
    done, times, kinds = ref
    # Only the flagged message that completes calls back, at the time
    # the table holds for it; the unflagged ones complete silently.
    assert done == [(0, times[0])]
    assert times[2] == -1.0
    assert all(0.0 < times[mid] < 2_000.0 for mid in (0, 1, 3))
    # Minimal routing: every packet counted is "minimal", kind 0, in
    # its group's row of the row-major group-by-kind table.
    width = len(kinds) // 2
    assert kinds == [1] + [0] * (width - 1) + [5] + [0] * (width - 1)


@pytest.mark.parametrize("listener", [False, True])
@pytest.mark.parametrize("group", [-1, 2])
def test_a_group_id_outside_the_kind_table_stops_the_run(sf5, group,
                                                         listener):
    # The group ids are a buffer Python can still write while the kernel
    # holds it: the countdown checks each against the kind table's rows
    # as it counts (with and without listeners), so a bad one is an
    # IndexError out of the run, never a count outside the table.
    net = Network(sf5, MinimalRouting(sf5, seed=1), KERNEL)
    _, kinds = net.watch_messages([2, 2], [False, False], [0, 1], print)
    if listener:
        net.add_delivery_listener(lambda pkt: None)
    net._msg_group[1] = group
    net.nics[3].submit(40, 512, 1)
    with pytest.raises(IndexError,
                       match=rf"message 1's group {group} outside \[0, 2\)"):
        net.engine.run()
    assert not any(kinds)


def test_kernel_watch_refuses_tables_it_cannot_index(sf5):
    net = Network(sf5, MinimalRouting(sf5, seed=1), KERNEL)
    kernel = net._vec.kernel
    cap = len(net.stats.kind_totals)
    left, rel, times = array("i", [1, 1]), bytes(2), array("d", [-1.0] * 2)
    groups, kinds = array("i", [0, 1]), array("q", bytes(16 * cap))
    with pytest.raises(ValueError, match="differ in length"):
        kernel.watch(left, rel, times, array("i", [0]), kinds, print)
    with pytest.raises(ValueError, match=f"kind table is not rows of {cap}"):
        kernel.watch(left, rel, times, groups, kinds[1:], print)
    with pytest.raises(TypeError, match="group ids must be an array"):
        kernel.watch(left, rel, times, array("q", [0, 1]), kinds, print)
    with pytest.raises(TypeError, match=r"kind table must be an array\('q'\)"):
        kernel.watch(left, rel, times, groups, array("i", kinds), print)
    assert net.engine.memory_stats()["msg_watched"] == 0
    kernel.watch(left, rel, times, groups, kinds, print)
    assert net.engine.memory_stats()["msg_watched"] == 2


def test_countdown_stays_in_c_when_a_listener_attaches(sf5):
    # A scheduled call attaches a listener mid-run: from then on the
    # kernel calls it on every delivery, and the countdown stays in C,
    # calling back once per message that releases others.
    w = build_workload("halo3d", sf5.num_nodes, 1_000, iterations=2)
    releasing = sum(1 for deps in w.dependents().values() if deps)

    def run(backend):
        net = Network(sf5, UGALRouting(sf5, seed=0), SimConfig(backend=backend))
        seen = []
        net.engine.schedule(1_500.0, net.add_delivery_listener, seen.append)
        res = net.run_workload(w)
        return net, res, len(seen)

    _, ref, ref_seen = run("object")
    net, got, seen = run("kernel")
    for field in ("completion_ns", "packets", "phases"):
        assert got[field] == ref[field]
    assert seen == ref_seen > 0
    esc = escapes(net)
    assert esc["deliver"] == seen
    assert esc["msg_done"] == releasing == 900


def test_tracked_exchange_escapes_every_delivery(sf5):
    # An exchange's message tracking is a delivery listener: on the
    # kernel every delivery calls it, and the per-message statistics
    # equal the object engine's.
    exchange = NearestNeighbor3D(sf5.num_nodes, message_bytes=1_000)

    def run(backend):
        net = Network(sf5, MinimalRouting(sf5, seed=1), SimConfig(backend=backend))
        return net, net.run_exchange(exchange, track_messages=True)

    _, ref = run("object")
    net, got = run("kernel")
    assert got == ref
    assert got["messages"]["count"] == 6 * sf5.num_nodes
    assert escapes(net)["deliver"] == net.stats.ejected_total == got["packets"]
    assert net.engine.kernel_stats()["fast_path"]["deliver"]["count"] == 0


def test_kernel_never_calls_the_object_engines_accounting(sf5):
    # A checked two-iteration halo with a user listener: the checker
    # routes every send through make_packet and both listeners see
    # every delivery, yet the kernel records sends and deliveries and
    # counts the messages down in C.  The object engine's accounting,
    # replaced on the instance by functions that raise, is never
    # called, and the run equals an unpatched object-engine run.
    w = build_workload("halo3d", sf5.num_nodes, 1_000, iterations=2)
    releasing = sum(1 for deps in w.dependents().values() if deps)

    def forbidden(*args):
        raise AssertionError("the kernel called the object engine's accounting")

    def run(backend):
        net = Network(sf5, UGALRouting(sf5, seed=0),
                      SimConfig(backend=backend, check=True))
        seen = []
        net.add_delivery_listener(
            lambda p: seen.append((p.pid, p.msg_id, p.kind, p.eject_time)))
        if backend == "kernel":
            net.deliver = forbidden
            net.stats.record_inject = forbidden
            net.stats.record_eject = forbidden
        res = net.run_workload(w)
        res = {k: v for k, v in res.items()
               if k not in ("events", "driver_wall_s")}
        st = net.stats
        return net, (res, seen, st.injected_total, st.ejected_total,
                     st.first_inject, st.last_eject,
                     st.eject_count_per_node.tolist())

    _, ref = run("object")
    net, got = run("kernel")
    assert got == ref
    assert len(got[1]) == got[0]["packets"] == 7_200
    esc = escapes(net)
    assert esc["make_packet"] == esc["deliver"] == 7_200
    assert esc["msg_done"] == releasing

