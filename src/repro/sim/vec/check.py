"""Invariant checking for the kernel backend.

The object engine's :class:`~repro.sim.invariants.InvariantChecker`
shadows every router/NIC transition through Checked* subclasses; the
compiled kernel has no per-transition callbacks to hook, so its checker
works from the two seams both engines share -- packet creation (a
wrapped ``Network.make_packet``) and delivery (a delivery listener) --
plus *full-state audits* that reconcile the kernel's state arrays, its
pending events (delay lanes and heap, read through ``iter_pending``)
and the statistics counters against each other.  Audits read live
state only through kernel methods, including the snapshot copies
``Kernel.view`` and ``Kernel.lengths`` return, reduced with numpy.

Checked invariants:

- **Route legality** (at ``make_packet``): route endpoints match the
  packet's source/destination routers, every hop uses an existing
  channel and the topology's port table, the ejection port is the
  destination node's, and VC labels are within budget and legal under
  the routing's VC policy -- the object checker's rules, one function
  (:func:`~repro.sim.invariants.check_route`).
- **Latency floor** (at delivery): no packet arrives earlier than the
  zero-load latency of its hop count allows
  (:func:`~repro.sim.invariants.check_latency_floor`).
- **Conservation** (audits): ``injected - delivered - dropped`` equals
  the packets found in input queues, output queues and in-flight pending
  events, and equals the kernel's live packet slots; the per-port
  ``queued`` counter behind UGAL-L's congestion signal matches a
  recount; ``oq_occ`` matches queue contents plus in-switch packets.
- **Credit loops** (audits): for every channel VC,
  ``credits + pending credit arrivals + downstream buffered + on-link``
  sums to the VC capacity (pending arrivals are the kernel's lazily
  drained representation of the object engine's in-flight credits);
  NIC injection loops likewise sum to the port capacity.

Violations raise :class:`~repro.sim.invariants.InvariantViolation` with
a state snapshot.  Audits run every ``AUDIT_PERIOD`` deliveries and at
experiment end (``audit`` / ``verify_quiescent``, the same entry points
the object checker exposes); they read state and schedule no events,
so checking cannot perturb event order -- a checked run produces the
same fingerprint as an unchecked one.

An attached checker costs Python per packet: its wrapped
``make_packet`` keeps every send out of the C route path
(``KernelEngine._fastpath_spec``), and the kernel calls its delivery
listener on every delivery.  The statistics it reconciles are still
accounted in C, as in an unchecked run, written in place into the
collector's counters, so an audit reads them as they stand; the
goldens pin that checked and unchecked runs produce identical
fingerprints.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.sim.invariants import InvariantViolation, check_latency_floor, check_route
from repro.sim.packet import Packet
from repro.sim.vec.kernel import OP_DELIVER, OP_ENTER, OP_RECV

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.network import Network

__all__ = ["KernelChecker"]

#: Deliveries between two full-state audits.
AUDIT_PERIOD = 256


class _DeliveryLog:
    """Minimal stand-in for the object checker's transition history:
    counts observed packet events (the CLI summary reports it)."""

    __slots__ = ("appended",)

    def __init__(self) -> None:
        self.appended = 0


class KernelChecker:
    """Audit-based invariant checker for ``backend="kernel"``."""

    def __init__(self, net: "Network") -> None:
        self.net = net
        self.injected = 0
        self.delivered = 0
        self.audits = 0
        self.history = _DeliveryLog()
        self._since_audit = 0
        self._vc_capacity = net.config.buffer_packets_per_vc(net.num_vcs)
        self._nic_capacity = net.config.buffer_packets_per_port
        self._orig_make_packet = None

    # -- wiring ----------------------------------------------------------------

    def attach(self) -> None:
        """Wrap packet creation and register the delivery check as the
        network's first delivery listener; called once the engine is
        built."""
        net = self.net
        self._orig_make_packet = net.make_packet
        net.make_packet = self._checked_make_packet
        net.add_delivery_listener(self.on_deliver)

    def fail(self, rule: str, message: str, **where) -> None:
        raise InvariantViolation(
            rule, message, time_ns=self.net.engine.now,
            snapshot={"backend": "kernel"}, **where,
        )

    # -- packet creation -------------------------------------------------------

    def _checked_make_packet(self, src_node, dst_node, size, msg_id, gen_time):
        pkt = self._orig_make_packet(src_node, dst_node, size, msg_id, gen_time)
        check_route(self.net, pkt, self.fail)
        self.injected += 1
        self.history.appended += 1
        return pkt

    # -- delivery --------------------------------------------------------------

    def on_deliver(self, pkt: Packet) -> None:
        check_latency_floor(self.net, pkt, self.fail)
        self.delivered += 1
        self.history.appended += 1
        if self.delivered > self.injected:
            self.fail("conservation", f"delivered {self.delivered} packets "
                      f"but only {self.injected} were injected", pid=pkt.pid)
        self._since_audit += 1
        if self._since_audit >= AUDIT_PERIOD:
            self._since_audit = 0
            self.audit()

    # -- audits ----------------------------------------------------------------

    def audit(self) -> None:
        """Reconcile kernel state, the pending events and the stats
        counters."""
        self.audits += 1
        net = self.net
        eng = net._vec
        k = eng.kernel
        st = eng.st
        V = st.V
        if self.injected != net.stats.injected_total:
            self.fail("conservation", f"checker saw {self.injected} "
                      f"injections, StatsCollector recorded "
                      f"{net.stats.injected_total}")
        if self.delivered != net.stats.ejected_total:
            self.fail("conservation", f"checker saw {self.delivered} "
                      f"deliveries, StatsCollector recorded "
                      f"{net.stats.ejected_total}")

        # One pass over the pending event set: packet-carrying events
        # are in-flight packets; RECV events are additionally the
        # on-link population of their target input (credit-loop term).
        pending_pkts = 0
        enter_by_pv = np.zeros(st.NP * V, dtype=np.int64)
        enter_by_gid = np.zeros(st.NP, dtype=np.int64)
        recv_by_iv = np.zeros(st.NI * V, dtype=np.int64)
        for ev in eng.iter_pending():
            op = ev[2]
            if op == OP_RECV:
                pending_pkts += 1
                recv_by_iv[ev[3] * V + ev[4]] += 1
            elif op == OP_ENTER:
                pending_pkts += 1
                enter_by_pv[ev[3]] += 1
                enter_by_gid[ev[5]] += 1
            elif op == OP_DELIVER:
                pending_pkts += 1

        def lengths(name):
            return np.frombuffer(k.lengths(name), dtype=np.int32).astype(np.int64)

        def view(name):
            return np.frombuffer(k.view(name), dtype=_VIEW_DTYPES[name])

        iv_len = lengths("iv_q")
        oq_len = lengths("pv_oq")
        buffered = int(iv_len.sum())
        queued = int(oq_len.sum())
        in_flight = pending_pkts + buffered + queued
        fm = net.fault_manager
        dropped = fm.dropped if fm is not None else 0
        if self.injected != self.delivered + in_flight + dropped:
            self.fail("conservation", f"injected {self.injected} != "
                      f"delivered {self.delivered} + in-flight {in_flight} "
                      f"+ dropped {dropped} (on-link/in-switch {pending_pkts}, "
                      f"input-buffered {buffered}, output-queued {queued})")
        live = k.memory()["slots_live"]
        if live != in_flight:
            self.fail("conservation", f"kernel holds {live} live packet "
                      f"slots for {in_flight} packets in flight (slot "
                      f"recycling leaks or double-frees)")

        # Per-VC occupancy counters vs. a recount.
        occ = view("pv_occ")
        expect = oq_len + enter_by_pv
        bad = np.flatnonzero(occ != expect)
        if bad.size:
            pv = int(bad[0])
            self.fail("conservation", f"oq_occ[{pv % V}] is {occ[pv]}, "
                      f"recount holds {expect[pv]} packets in/entering "
                      f"that queue", port=pv // V, vc=pv % V)

        # UGAL `queued` recount: every waiting packet charged to the
        # output it will take at its current router.
        p_queued = view("p_queued")
        recount = oq_len.reshape(st.NP, V).sum(axis=1) + enter_by_gid
        for igid in np.flatnonzero(iv_len.reshape(st.NI, V).sum(axis=1)):
            base_p = st.in_pbase[igid]
            for vc in range(V):
                for slot in k.queue("iv_q", int(igid) * V + vc):
                    recount[base_p + k.next_port(slot)[1]] += 1
        bad = np.flatnonzero(p_queued != recount)
        if bad.size:
            gid = int(bad[0])
            self.fail("conservation", f"output `queued` counter is "
                      f"{p_queued[gid]}, recount holds {recount[gid]} "
                      f"packets bound for it (UGAL congestion signal "
                      f"corrupt)", port=gid)

        # Credit loops: materialised credits + undrained arrivals +
        # downstream buffered + on-link == capacity, per channel VC.
        cred = view("pv_cred").reshape(st.NP, V)
        arr = lengths("pv_arr").reshape(st.NP, V)
        iv_len2 = iv_len.reshape(st.NI, V)
        recv2 = recv_by_iv.reshape(st.NI, V)
        has = np.asarray(st.p_has_cred, dtype=bool)
        din = np.asarray(st.p_dest_in, dtype=np.int64)
        gids = np.flatnonzero(has)
        total = (cred[gids] + arr[gids] + iv_len2[din[gids]]
                 + recv2[din[gids]])
        bad = np.argwhere(total != self._vc_capacity)
        if bad.size:
            i, vc = (int(x) for x in bad[0])
            gid = int(gids[i])
            self.fail("credit-loop", f"channel credit loop does not "
                      f"sum to capacity: credits {cred[gid, vc]} + "
                      f"in-flight {arr[gid, vc]} + buffered "
                      f"{iv_len2[din[gid], vc]} + on-link "
                      f"{recv2[din[gid], vc]} = {total[i, vc]}, "
                      f"expected {self._vc_capacity}", port=gid, vc=vc)
        n_in = np.asarray(st.n_in, dtype=np.int64)
        n_cred = view("n_cred")
        n_arr = lengths("n_arr")
        n_total = n_cred + n_arr + iv_len2[n_in, 0] + recv2[n_in, 0]
        bad = np.flatnonzero(n_total != self._nic_capacity)
        if bad.size:
            node = int(bad[0])
            self.fail("credit-loop", f"NIC {node} injection loop does "
                      f"not sum to capacity: credits {n_cred[node]} + "
                      f"in-flight {n_arr[node]} + buffered "
                      f"{iv_len2[n_in[node], 0]} + on-link "
                      f"{recv2[n_in[node], 0]} = {n_total[node]}, expected "
                      f"{self._nic_capacity}")

    def verify_quiescent(self) -> None:
        """After a drained run: nothing in flight, every credit home."""
        self.audit()
        net = self.net
        k = net._vec.kernel
        st = net._vec.st
        fm = net.fault_manager
        dropped = fm.dropped if fm is not None else 0
        in_flight = self.injected - self.delivered - dropped
        if in_flight:
            self.fail("conservation", f"{in_flight} packets still in "
                      f"flight after drain")
        pend = np.frombuffer(k.lengths("p_pend"), dtype=np.int32)
        for gid in np.flatnonzero(pend):
            parked = [divmod(iv, st.V) for iv in k.queue("p_pend", int(gid))]
            self.fail("starvation", f"inputs {parked} still pending on an "
                      f"idle output", port=int(gid))
        home = (np.frombuffer(k.view("pv_cred"), dtype=np.int32)
                + np.frombuffer(k.lengths("pv_arr"), dtype=np.int32))
        home = home.reshape(st.NP, st.V)
        for gid in np.flatnonzero(np.asarray(st.p_has_cred, dtype=bool)):
            for vc in np.flatnonzero(home[gid] != self._vc_capacity):
                self.fail("credit-loop", f"credits {home[gid, vc]} not "
                          f"fully restored after drain (capacity "
                          f"{self._vc_capacity})", port=int(gid), vc=int(vc))
        n_home = (np.frombuffer(k.view("n_cred"), dtype=np.int32)
                  + np.frombuffer(k.lengths("n_arr"), dtype=np.int32))
        for node in np.flatnonzero(n_home != self._nic_capacity):
            self.fail("credit-loop", f"NIC {int(node)} ended with "
                      f"{n_home[node]}/{self._nic_capacity} credits")


#: numpy dtypes of the kernel state arrays the audits read.
_VIEW_DTYPES = {"pv_occ": np.int32, "p_queued": np.int32,
                "pv_cred": np.int32, "n_cred": np.int32}
