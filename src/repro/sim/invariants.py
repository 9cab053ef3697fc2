"""Runtime invariant checking for the flit-level simulator.

An opt-in verification layer (``SimConfig(check=True)`` / CLI
``--check``) that hooks every state transition of the simulated network
and continuously verifies the universal invariants the paper's results
rest on:

- **Packet conservation** -- every injected packet is in exactly one
  place (NIC link, input buffer, crossbar, output queue, link, ejection
  link) until delivered, and ``injected == delivered + in_flight +
  dropped`` at all times (``dropped`` is only ever non-zero under fault
  injection with the ``"drop"`` policy; see :mod:`repro.resilience`).
- **Credit-loop accounting** -- for every router-router channel and
  every VC, ``credits + occupied downstream input slots + packets on
  the link + credits in flight back upstream`` is constant (the per-VC
  buffer capacity); likewise for each NIC's injection loop.
- **Route and VC-order legality** -- routes are checked at injection
  time against the topology (consecutive routers adjacent, hop ports
  correct) and the VC policy (hop-indexed VCs strictly follow the hop
  index; phase VCs are 0/1 and non-decreasing), the deadlock-avoidance
  rules of :mod:`repro.routing.vc`.  :func:`check_route` holds these
  rules; the kernel's checker (:mod:`repro.sim.vec.check`) calls it too.
- **Latency floors** -- no packet is delivered faster than the
  zero-load latency of its hop count allows (:func:`check_latency_floor`,
  which the kernel's checker calls too).
- **No event starvation** -- a watchdog observes simulator progress and
  converts any stall (deadlock, lost wake-up) into a structured report
  with a full buffer/credit snapshot instead of a silent hang or an
  opaque "exchange incomplete".

On violation an :class:`InvariantViolation` is raised carrying the
offending router/port/VC, a state snapshot, and the recent event
history (a :class:`repro.sim.trace.EventRing`).

The checker is wired in by :class:`repro.sim.network.Network` when the
config enables it: routers and NICs are built as :class:`CheckedRouter`
/ :class:`CheckedNIC` subclasses whose overrides notify the checker
around each transition, so the default (unchecked) hot path pays
nothing.  The checker never perturbs simulation physics -- watchdog
events carry no RNG draws and same-timestamp event order among
simulation callbacks is preserved -- which the golden conformance suite
(:mod:`repro.experiments.conformance`) verifies by fingerprint.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple, TYPE_CHECKING

from repro.sim.nic import NIC
from repro.sim.packet import Packet
from repro.sim.switch import OutputPort, Router, _PortCreditSink
from repro.sim.trace import EventRing

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.network import Network

__all__ = [
    "InvariantViolation",
    "InvariantChecker",
    "check_route",
    "check_latency_floor",
    "CheckedRouter",
    "CheckedNIC",
]


class InvariantViolation(RuntimeError):
    """A simulator invariant was broken.

    Attributes identify the offending location (``router``, ``port``,
    ``vc``, ``pid`` -- any may be ``None``), ``snapshot`` holds the
    relevant buffer/credit state at violation time, and ``history`` the
    most recent hooked events (oldest first).
    """

    def __init__(
        self,
        rule: str,
        message: str,
        *,
        router: Optional[int] = None,
        port: Optional[int] = None,
        vc: Optional[int] = None,
        pid: Optional[int] = None,
        time_ns: Optional[float] = None,
        snapshot: Optional[dict] = None,
        history: Tuple[Tuple[float, str], ...] = (),
    ):
        self.rule = rule
        self.message = message
        self.router = router
        self.port = port
        self.vc = vc
        self.pid = pid
        self.time_ns = time_ns
        self.snapshot = snapshot or {}
        self.history = history
        super().__init__(self.report())

    def report(self) -> str:
        """Multi-line, human-actionable violation report."""
        where = ", ".join(
            f"{name}={value}"
            for name, value in (
                ("router", self.router),
                ("port", self.port),
                ("vc", self.vc),
                ("pid", self.pid),
            )
            if value is not None
        )
        lines = [
            f"invariant violated: {self.rule}",
            f"  at t={self.time_ns}ns" + (f" ({where})" if where else ""),
            f"  {self.message}",
        ]
        for key, value in sorted(self.snapshot.items()):
            lines.append(f"  {key}: {value}")
        if self.history:
            lines.append(f"  last {len(self.history)} events:")
            for t, label in self.history:
                lines.append(f"    [{t:.1f}] {label}")
        return "\n".join(lines)


def check_route(net: "Network", pkt: Packet, fail: Callable[..., None]) -> None:
    """Topology, port-table and VC-policy legality of *pkt*'s route.

    Both engines' checkers run it at injection; each violation goes to
    ``fail(rule, message, **where)``, the checker's raise.
    """
    topo = net.topology
    routers = pkt.routers
    hops = len(routers) - 1
    if routers[0] != topo.router_of(pkt.src_node):
        fail("route-legality", f"route starts at router {routers[0]}, "
             f"but node {pkt.src_node} attaches to "
             f"{topo.router_of(pkt.src_node)}", pid=pkt.pid)
    if routers[-1] != topo.router_of(pkt.dst_node):
        fail("route-legality", f"route ends at router {routers[-1]}, "
             f"but node {pkt.dst_node} attaches to "
             f"{topo.router_of(pkt.dst_node)}", pid=pkt.pid)
    if len(pkt.ports) != hops + 1 or len(pkt.vcs) != hops:
        fail("route-legality",
             f"route of {hops} hops carries {len(pkt.ports)} ports "
             f"and {len(pkt.vcs)} VC labels", pid=pkt.pid)
    for i in range(hops):
        u, v = routers[i], routers[i + 1]
        if not topo.is_edge(u, v):
            fail("route-legality", f"hop {i} uses non-existent "
                 f"channel ({u}, {v})", router=u, pid=pkt.pid)
        if pkt.ports[i] != topo.port(u, v):
            fail("route-legality", f"hop {i} ({u}->{v}) uses port "
                 f"{pkt.ports[i]}, expected {topo.port(u, v)}",
                 router=u, port=pkt.ports[i], pid=pkt.pid)
    if pkt.ports[-1] != net._eject_ports[pkt.dst_node]:
        fail("route-legality", f"ejection port {pkt.ports[-1]} is not "
             f"node {pkt.dst_node}'s port "
             f"{net._eject_ports[pkt.dst_node]}",
             router=routers[-1], port=pkt.ports[-1], pid=pkt.pid)
    num_vcs = net.num_vcs
    for h, vc in enumerate(pkt.vcs):
        if not (0 <= vc < num_vcs):
            fail("vc-legality", f"hop {h} uses VC {vc}, outside the "
                 f"provisioned 0..{num_vcs - 1}", vc=vc, pid=pkt.pid)
    policy = getattr(net.routing, "vc_policy", None)
    if policy is not None:
        problem = policy.check_legal(pkt.vcs, pkt.kind)
        if problem is not None:
            fail("vc-legality", problem, pid=pkt.pid)


def check_latency_floor(net: "Network", pkt: Packet, fail: Callable[..., None]) -> None:
    """*pkt*, delivered now, took no less than the zero-load latency of
    its hop count since it was sent.

    Both engines' checkers run it at delivery; a violation goes to
    ``fail(rule, message, **where)``.
    """
    hops = len(pkt.routers) - 1
    floor = net.config.zero_load_latency_ns(hops)
    elapsed = net.engine.now - pkt.send_time
    if elapsed < floor * (1.0 - 1e-9) - 1e-9:
        fail("latency-floor", f"packet {pkt.pid} delivered "
             f"{elapsed:.3f}ns after transmission, below the "
             f"{floor:.3f}ns zero-load floor for {hops} hops (time "
             f"travel: lost serialization or switch delay)",
             router=pkt.routers[-1], pid=pkt.pid)


class InvariantChecker:
    """Tracks every in-flight packet and credit; verifies the invariants.

    One instance per :class:`~repro.sim.network.Network`; created and
    attached by the network's constructor when ``config.check`` is set.
    """

    #: Watchdog ticks with in-flight packets but zero progress before a
    #: starvation violation is raised.
    STALL_TICKS = 8

    def __init__(self, net: "Network", history_capacity: int = 256):
        self.net = net
        self.injected = 0
        self.delivered = 0
        self.dropped = 0  # fault-policy "drop" losses (repro.resilience)
        # pid -> (location, packet).  Locations:
        #   ("inj", node)                    on the injection link
        #   ("inq", rid, in_idx, vc)         in a router input buffer
        #   ("xbar", rid, out_idx, out_vc)   crossing the switch
        #   ("oq", rid, out_idx, out_vc)     in an output queue
        #   ("link", rid, out_idx, vc)       on a router-router link
        #   ("eject", rid, out_idx)          on an ejection link
        self.location: Dict[int, Tuple[tuple, Packet]] = {}
        self.link_in_flight: Dict[Tuple[int, int, int], int] = {}
        self.credit_in_flight: Dict[tuple, int] = {}
        self.inj_in_flight: Dict[int, int] = {}
        self.history = EventRing(history_capacity)
        self.progress = 0
        self.audits = 0
        self._watchdog_running = False
        self._stall_ticks = 0
        self._last_progress = -1
        # Filled by attach() once the network is fully wired.
        self._vc_capacity = 0
        self._nic_capacity = 0
        self._watchdog_period_ns = 0.0
        self._orig_make_packet = None

    # -- wiring ----------------------------------------------------------------

    def attach(self) -> None:
        """Wrap packet creation and register the delivery check as the
        network's first delivery listener; called once the network is
        built."""
        net = self.net
        cfg = net.config
        self._vc_capacity = cfg.buffer_packets_per_vc(net.num_vcs)
        self._nic_capacity = cfg.buffer_packets_per_port
        # A generous multiple of the slowest single step: long enough
        # that a healthy network always progresses between ticks, short
        # enough that a deadlock is reported promptly.
        step = cfg.switch_latency_ns + cfg.packet_time_ns + cfg.link_latency_ns
        self._watchdog_period_ns = max(step * 16.0, 1.0)
        self._orig_make_packet = net.make_packet
        net.make_packet = self._checked_make_packet
        net.add_delivery_listener(self.on_deliver)

    # -- violation plumbing ----------------------------------------------------

    def fail(
        self,
        rule: str,
        message: str,
        *,
        router: Optional[int] = None,
        port: Optional[int] = None,
        vc: Optional[int] = None,
        pid: Optional[int] = None,
        snapshot: Optional[dict] = None,
    ) -> None:
        snap = dict(snapshot or {})
        if router is not None:
            snap.update(self.router_snapshot(router))
        raise InvariantViolation(
            rule,
            message,
            router=router,
            port=port,
            vc=vc,
            pid=pid,
            time_ns=self.net.engine.now,
            snapshot=snap,
            history=tuple(self.history.tail(24)),
        )

    def router_snapshot(self, rid: int) -> dict:
        """Buffer/credit state of one router, for violation reports."""
        router = self.net.routers[rid]
        snap: dict = {}
        snap[f"router[{rid}].inputs"] = [
            [len(q) for q in per_vc] for per_vc in router.in_q
        ]
        for out in router.out:
            key = f"router[{rid}].out[{out.out_idx}]"
            snap[key] = {
                "busy": out.busy,
                "queued": out.queued,
                "oq_occ": list(out.oq_occ),
                "oq_len": [len(q) for q in out.oq],
                "credits": None if out.credits is None else list(out.credits),
                "pending_inputs": list(out.pending_inputs),
                "eject_node": out.eject_node,
            }
        return snap

    def _note(self, label: str, *args) -> None:
        # Hot path: *args stay raw; the EventRing interpolates only when
        # a report is rendered.
        self.progress += 1
        self.history.append(self.net.engine.now, label, *args)

    # -- injection (route legality) --------------------------------------------

    def _checked_make_packet(self, src_node, dst_node, size, msg_id, gen_time):
        pkt = self._orig_make_packet(src_node, dst_node, size, msg_id, gen_time)
        self.on_inject(pkt)
        return pkt

    def on_inject(self, pkt: Packet) -> None:
        check_route(self.net, pkt, self.fail)
        self.injected += 1
        self.location[pkt.pid] = (("inj", pkt.src_node), pkt)
        self.inj_in_flight[pkt.src_node] = self.inj_in_flight.get(pkt.src_node, 0) + 1
        self._note("inject pid=%d %d->%d %s", pkt.pid, pkt.src_node, pkt.dst_node, pkt.kind)
        self.check_conservation()
        if not self._watchdog_running:
            self.start_watchdog()

    # -- router transitions -----------------------------------------------------

    def expect_location(self, pkt: Packet, *kinds: str) -> tuple:
        entry = self.location.get(pkt.pid)
        if entry is None:
            self.fail("conservation", f"packet {pkt.pid} is not registered as "
                      f"in flight (duplicated, or delivered twice?)", pid=pkt.pid)
        loc = entry[0]
        if loc[0] not in kinds:
            self.fail("conservation", f"packet {pkt.pid} moved from {loc}, "
                      f"expected one of {kinds}", pid=pkt.pid,
                      snapshot={"location": loc})
        return loc

    def pre_receive(self, router: Router, in_idx: int, vc: int, pkt: Packet) -> None:
        rid = router.rid
        hop = pkt.hop
        if not (0 <= hop < len(pkt.routers)):
            self.fail("route-legality", f"packet {pkt.pid} arrived with hop "
                      f"index {hop} outside its {len(pkt.routers)}-router "
                      f"route", router=rid, pid=pkt.pid)
        if pkt.routers[hop] != rid:
            self.fail("route-legality", f"packet {pkt.pid} arrived at router "
                      f"{rid} but its route places hop {hop} at "
                      f"{pkt.routers[hop]}", router=rid, pid=pkt.pid)
        if hop == 0:
            if vc != 0:
                self.fail("vc-legality", f"injected packet {pkt.pid} arrived "
                          f"on VC {vc}, injection always uses VC 0",
                          router=rid, vc=vc, pid=pkt.pid)
            loc = self.expect_location(pkt, "inj")
            self.inj_in_flight[pkt.src_node] -= 1
        else:
            if vc != pkt.vcs[hop - 1]:
                self.fail("vc-legality", f"packet {pkt.pid} arrived on VC "
                          f"{vc}, its route assigns VC {pkt.vcs[hop - 1]} to "
                          f"hop {hop - 1}", router=rid, vc=vc, pid=pkt.pid)
            loc = self.expect_location(pkt, "link")
            key = (loc[1], loc[2], loc[3])
            self.link_in_flight[key] -= 1
            if self.link_in_flight[key] < 0:
                self.fail("credit-loop", f"more packets left channel "
                          f"{key[:2]} VC {key[2]} than entered it",
                          router=key[0], port=key[1], vc=key[2])
        capacity = (
            self._nic_capacity if isinstance(router.in_upstream[in_idx], NIC)
            else self._vc_capacity
        )
        if len(router.in_q[in_idx][vc]) >= capacity:
            self.fail("credit-loop", f"input buffer ({in_idx}, vc {vc}) "
                      f"overflowed its {capacity}-packet capacity on arrival "
                      f"of packet {pkt.pid} (credit protocol broken)",
                      router=rid, port=in_idx, vc=vc, pid=pkt.pid)
        self.location[pkt.pid] = (("inq", rid, in_idx, vc), pkt)
        self._note("recv pid=%d @r%d in=%d vc=%d", pkt.pid, rid, in_idx, vc)

    def post_receive(self, router: Router, in_idx: int, vc: int) -> None:
        upstream = router.in_upstream[in_idx]
        if isinstance(upstream, _PortCreditSink):
            self.check_credit_loop(upstream.router.rid, upstream.port.out_idx, vc)
        elif isinstance(upstream, NIC):
            self.check_nic_loop(upstream)

    def on_transfer(
        self, router: Router, in_idx: int, vc: int, moved: List[Packet]
    ) -> None:
        rid = router.rid
        upstream = router.in_upstream[in_idx]
        for pkt in moved:
            self.expect_location(pkt, "inq")
            hop = pkt.hop
            out_idx = pkt.ports[hop]
            out_vc = pkt.vcs[hop] if hop < len(pkt.vcs) else 0
            out = router.out[out_idx]
            if out.oq_occ[out_vc] > out.oq_cap:
                self.fail("credit-loop", f"output queue ({out_idx}, vc "
                          f"{out_vc}) exceeded its {out.oq_cap}-packet "
                          f"capacity", router=rid, port=out_idx, vc=out_vc)
            self.location[pkt.pid] = (("xbar", rid, out_idx, out_vc), pkt)
            if isinstance(upstream, _PortCreditSink):
                key = (upstream.router.rid, upstream.port.out_idx, vc)
                self.credit_in_flight[key] = self.credit_in_flight.get(key, 0) + 1
            elif isinstance(upstream, NIC):
                key = ("nic", upstream.node)
                self.credit_in_flight[key] = self.credit_in_flight.get(key, 0) + 1
            self._note("xfer pid=%d @r%d in=%d -> out=%d", pkt.pid, rid, in_idx, out_idx)

    def on_enter_oq(self, router: Router, out: OutputPort, out_vc: int, pkt: Packet) -> None:
        self.expect_location(pkt, "xbar")
        self.location[pkt.pid] = (("oq", router.rid, out.out_idx, out_vc), pkt)
        self._note("oq pid=%d @r%d out=%d vc=%d", pkt.pid, router.rid, out.out_idx, out_vc)

    # -- fault injection (repro.resilience) -------------------------------------

    def on_fault_drop(self, pkt: Packet) -> None:
        """A packet queued toward a dead link was discarded (policy
        ``"drop"``).  It leaves the registry and joins the ``dropped``
        term of the conservation equation."""
        self.expect_location(pkt, "oq")
        del self.location[pkt.pid]
        self.dropped += 1
        self._note("fault-drop pid=%d", pkt.pid)
        self.check_conservation()

    def on_fault_move(
        self, pkt: Packet, rid: int, out_idx: int, vc: int
    ) -> None:
        """A packet queued toward a dead link was rerouted onto a
        surviving output of the same router (policy ``"reroute"``)."""
        self.expect_location(pkt, "oq")
        self.location[pkt.pid] = (("oq", rid, out_idx, vc), pkt)
        self._note("fault-move pid=%d @r%d -> out=%d vc=%d", pkt.pid, rid, out_idx, vc)

    def on_transmit(self, router: Router, out: OutputPort, vc: int, pkt: Packet) -> None:
        rid = router.rid
        self.expect_location(pkt, "oq")
        if out.credits is not None:
            if out.credits[vc] < 0:
                self.fail("credit-loop", f"credits went negative after "
                          f"transmitting packet {pkt.pid}", router=rid,
                          port=out.out_idx, vc=vc, pid=pkt.pid)
            self.location[pkt.pid] = (("link", rid, out.out_idx, vc), pkt)
            key = (rid, out.out_idx, vc)
            self.link_in_flight[key] = self.link_in_flight.get(key, 0) + 1
            self._note("tx pid=%d @r%d out=%d vc=%d", pkt.pid, rid, out.out_idx, vc)
            self.check_credit_loop(rid, out.out_idx, vc)
        else:
            self.location[pkt.pid] = (("eject", rid, out.out_idx), pkt)
            self._note("eject-tx pid=%d @r%d out=%d", pkt.pid, rid, out.out_idx)

    # -- credit returns ---------------------------------------------------------

    def on_port_credit(self, router: Router, port: OutputPort, vc: int) -> None:
        key = (router.rid, port.out_idx, vc)
        self.credit_in_flight[key] = self.credit_in_flight.get(key, 0) - 1
        if self.credit_in_flight[key] < 0:
            self.fail("credit-loop", f"credit returned to port that has no "
                      f"credit outstanding", router=router.rid,
                      port=port.out_idx, vc=vc)
        self._note("credit @r%d out=%d vc=%d", router.rid, port.out_idx, vc)

    def post_port_credit(self, router: Router, port: OutputPort, vc: int) -> None:
        if port.credits is not None and port.credits[vc] > self._vc_capacity:
            self.fail("credit-loop", f"credits {port.credits[vc]} exceed the "
                      f"per-VC capacity {self._vc_capacity}",
                      router=router.rid, port=port.out_idx, vc=vc)
        self.check_credit_loop(router.rid, port.out_idx, vc)

    def on_nic_credit(self, nic: NIC) -> None:
        key = ("nic", nic.node)
        self.credit_in_flight[key] = self.credit_in_flight.get(key, 0) - 1
        if self.credit_in_flight[key] < 0:
            self.fail("credit-loop", f"injection credit returned to NIC "
                      f"{nic.node} with no credit outstanding",
                      router=nic.router_id, port=nic.in_idx)
        self._note("nic-credit node=%d", nic.node)

    def post_nic_credit(self, nic: NIC) -> None:
        if nic.credits > self._nic_capacity:
            self.fail("credit-loop", f"NIC {nic.node} credits {nic.credits} "
                      f"exceed the injection-buffer capacity "
                      f"{self._nic_capacity}", router=nic.router_id,
                      port=nic.in_idx)
        self.check_nic_loop(nic)

    # -- delivery ---------------------------------------------------------------

    def on_deliver(self, pkt: Packet) -> None:
        self.expect_location(pkt, "eject")
        check_latency_floor(self.net, pkt, self.fail)
        del self.location[pkt.pid]
        self.delivered += 1
        self._note("deliver pid=%d -> node %d", pkt.pid, pkt.dst_node)
        self.check_conservation()

    # -- invariant equations ----------------------------------------------------

    def check_conservation(self) -> None:
        in_flight = len(self.location)
        if self.injected != self.delivered + in_flight + self.dropped:
            self.fail("conservation", f"injected {self.injected} != delivered "
                      f"{self.delivered} + in-flight {in_flight} + dropped "
                      f"{self.dropped}")

    def check_credit_loop(
        self, rid: int, out_idx: int, only_vc: Optional[int] = None
    ) -> None:
        """Exact credit accounting for one router-router channel.

        Per-transition hooks pass ``only_vc`` (a transition can only
        disturb its own VC's loop); the periodic audit walks every VC.
        """
        out = self.net.routers[rid].out[out_idx]
        credits = out.credits
        if credits is None:
            return
        ds_q = out.downstream.in_q[out.downstream_in_idx]
        link_get = self.link_in_flight.get
        credit_get = self.credit_in_flight.get
        capacity = self._vc_capacity
        vcs = range(len(credits)) if only_vc is None else (only_vc,)
        for vc in vcs:
            key = (rid, out_idx, vc)
            total = credits[vc] + len(ds_q[vc]) + link_get(key, 0) + credit_get(key, 0)
            if total != capacity:
                self.fail("credit-loop", f"channel credit loop does not sum "
                          f"to capacity: credits {out.credits[vc]} + buffered "
                          f"{len(ds_q[vc])} + on-link "
                          f"{self.link_in_flight.get((rid, out_idx, vc), 0)} + "
                          f"credits-in-flight "
                          f"{self.credit_in_flight.get((rid, out_idx, vc), 0)} "
                          f"= {total}, expected {self._vc_capacity}",
                          router=rid, port=out_idx, vc=vc)

    def check_nic_loop(self, nic: NIC) -> None:
        """Exact credit accounting for one NIC injection loop."""
        total = (
            nic.credits
            + len(nic.router.in_q[nic.in_idx][0])
            + self.inj_in_flight.get(nic.node, 0)
            + self.credit_in_flight.get(("nic", nic.node), 0)
        )
        if total != self._nic_capacity:
            self.fail("credit-loop", f"NIC {nic.node} injection loop does not "
                      f"sum to capacity: credits {nic.credits} + buffered "
                      f"{len(nic.router.in_q[nic.in_idx][0])} + on-link "
                      f"{self.inj_in_flight.get(nic.node, 0)} + "
                      f"credits-in-flight "
                      f"{self.credit_in_flight.get(('nic', nic.node), 0)} = "
                      f"{total}, expected {self._nic_capacity}",
                      router=nic.router_id, port=nic.in_idx)

    # -- audits (periodic full walks) -------------------------------------------

    def audit(self) -> None:
        """Walk all live state and reconcile it with the registry."""
        self.audits += 1
        net = self.net
        self.check_conservation()
        if self.injected != net.stats.injected_total:
            self.fail("conservation", f"checker saw {self.injected} "
                      f"injections, StatsCollector recorded "
                      f"{net.stats.injected_total}")
        if self.delivered != net.stats.ejected_total:
            self.fail("conservation", f"checker saw {self.delivered} "
                      f"deliveries, StatsCollector recorded "
                      f"{net.stats.ejected_total}")
        # Aggregate registry counts per (router, container).
        in_counts: Dict[int, int] = {}
        queued_counts: Dict[Tuple[int, int], int] = {}
        oq_counts: Dict[Tuple[int, int, int], int] = {}
        for loc, pkt in self.location.values():
            kind = loc[0]
            if kind == "inq":
                in_counts[loc[1]] = in_counts.get(loc[1], 0) + 1
                tgt = (loc[1], pkt.ports[pkt.hop])
                queued_counts[tgt] = queued_counts.get(tgt, 0) + 1
            elif kind in ("xbar", "oq"):
                tgt = (loc[1], loc[2])
                queued_counts[tgt] = queued_counts.get(tgt, 0) + 1
                okey = (loc[1], loc[2], loc[3])
                oq_counts[okey] = oq_counts.get(okey, 0) + 1
        for rid, router in enumerate(net.routers):
            actual_in = sum(len(q) for per_vc in router.in_q for q in per_vc)
            if actual_in != in_counts.get(rid, 0):
                self.fail("conservation", f"router holds {actual_in} packets "
                          f"in input buffers, registry says "
                          f"{in_counts.get(rid, 0)}", router=rid)
            for out in router.out:
                expect_queued = queued_counts.get((rid, out.out_idx), 0)
                if out.queued != expect_queued:
                    self.fail("conservation", f"output `queued` counter is "
                              f"{out.queued}, registry holds {expect_queued} "
                              f"packets bound for it (UGAL congestion signal "
                              f"corrupt)", router=rid, port=out.out_idx)
                for vc in range(net.num_vcs):
                    expect_occ = oq_counts.get((rid, out.out_idx, vc), 0)
                    if out.oq_occ[vc] != expect_occ:
                        self.fail("conservation", f"oq_occ[{vc}] is "
                                  f"{out.oq_occ[vc]}, registry holds "
                                  f"{expect_occ} packets in/entering that "
                                  f"queue", router=rid, port=out.out_idx, vc=vc)
                    if len(out.oq[vc]) > out.oq_occ[vc]:
                        self.fail("credit-loop", f"output queue holds "
                                  f"{len(out.oq[vc])} packets but oq_occ is "
                                  f"{out.oq_occ[vc]}", router=rid,
                                  port=out.out_idx, vc=vc)
                if out.credits is not None:
                    self.check_credit_loop(rid, out.out_idx)
        for nic in net.nics:
            self.check_nic_loop(nic)

    def verify_quiescent(self) -> None:
        """After a drained run: nothing in flight, every credit home."""
        self.audit()
        if self.location:
            stuck = sorted(
                (pid, loc) for pid, (loc, _) in self.location.items()
            )[:10]
            self.fail("conservation", f"{len(self.location)} packets still in "
                      f"flight after drain; first stuck: {stuck}")
        for rid, router in enumerate(self.net.routers):
            for out in router.out:
                if out.credits is not None and any(
                    c != self._vc_capacity for c in out.credits
                ):
                    self.fail("credit-loop", f"credits {out.credits} not "
                              f"fully restored after drain (capacity "
                              f"{self._vc_capacity})", router=rid,
                              port=out.out_idx)
                if out.pending_inputs:
                    self.fail("starvation", f"inputs "
                              f"{list(out.pending_inputs)} still pending on "
                              f"an idle output", router=rid, port=out.out_idx)
        for nic in self.net.nics:
            if nic.credits != self._nic_capacity:
                self.fail("credit-loop", f"NIC {nic.node} ended with "
                          f"{nic.credits}/{self._nic_capacity} credits",
                          router=nic.router_id, port=nic.in_idx)

    # -- watchdog (starvation detection) ---------------------------------------

    def start_watchdog(self) -> None:
        """Begin periodic audits + stall detection (idempotent)."""
        if self._watchdog_running:
            return
        self._watchdog_running = True
        self._stall_ticks = 0
        self._last_progress = self.progress
        self.net.engine.schedule(self._watchdog_period_ns, self._watchdog_tick)

    def _watchdog_tick(self) -> None:
        engine = self.net.engine
        in_flight = len(self.location)
        self.audit()
        if self.progress == self._last_progress and in_flight > 0:
            self._stall_ticks += 1
            if self._stall_ticks >= self.STALL_TICKS or engine.pending == 0:
                self._report_stall(in_flight)
        else:
            self._stall_ticks = 0
        self._last_progress = self.progress
        if in_flight > 0 or engine.pending > 0:
            engine.schedule(self._watchdog_period_ns, self._watchdog_tick)
        else:
            self._watchdog_running = False

    def _report_stall(self, in_flight: int) -> None:
        by_router: Dict[int, int] = {}
        samples = []
        for pid, (loc, pkt) in self.location.items():
            if loc[0] != "inj":
                by_router[loc[1]] = by_router.get(loc[1], 0) + 1
            if len(samples) < 8:
                samples.append((pid, loc, f"{pkt.src_node}->{pkt.dst_node}",
                                f"hop {pkt.hop}/{len(pkt.routers) - 1}"))
        hottest = max(by_router, key=by_router.get) if by_router else None
        stalled_ns = self._stall_ticks * self._watchdog_period_ns
        self.fail(
            "starvation",
            f"{in_flight} packets in flight but no simulator progress for "
            f"{stalled_ns:.0f}ns (deadlock or lost wake-up); sample stuck "
            f"packets: {samples}",
            router=hottest,
            snapshot={"in_flight_by_router": by_router,
                      "pending_events": self.net.engine.pending},
        )


class CheckedRouter(Router):
    """A :class:`Router` that notifies the network's checker around every
    pipeline transition.  Behaviour-identical to the base class: every
    override calls ``super()`` for the actual state change."""

    __slots__ = ()

    def receive(self, in_idx: int, vc: int, pkt: Packet) -> None:
        checker = self.net.checker
        checker.pre_receive(self, in_idx, vc, pkt)
        super().receive(in_idx, vc, pkt)
        checker.post_receive(self, in_idx, vc)

    def _try_transfer(self, in_idx: int, vc: int) -> None:
        q = self.in_q[in_idx][vc]
        before = list(q)
        super()._try_transfer(in_idx, vc)
        moved = len(before) - len(q)
        if moved:
            self.net.checker.on_transfer(self, in_idx, vc, before[:moved])

    def _enter_oq(self, out: OutputPort, out_vc: int, pkt: Packet) -> None:
        self.net.checker.on_enter_oq(self, out, out_vc, pkt)
        super()._enter_oq(out, out_vc, pkt)

    def _try_transmit(self, out: OutputPort) -> None:
        heads = [q[0] if q else None for q in out.oq]
        sent_before = out.sent_packets
        super()._try_transmit(out)
        if out.sent_packets != sent_before:
            vc = (out.rr_vc - 1) % self.num_vcs
            self.net.checker.on_transmit(self, out, vc, heads[vc])

    def make_credit_sink(self, out_idx: int):
        return _CheckedPortCreditSink(self, self.out[out_idx])


class _CheckedPortCreditSink(_PortCreditSink):
    """Credit sink that verifies the loop on every returned credit."""

    __slots__ = ()

    def credit_return(self, vc: int) -> None:
        checker = self.router.net.checker
        checker.on_port_credit(self.router, self.port, vc)
        super().credit_return(vc)
        checker.post_port_credit(self.router, self.port, vc)


class CheckedNIC(NIC):
    """A :class:`NIC` that verifies its injection credit loop."""

    __slots__ = ()

    def credit_return(self, vc: int) -> None:
        checker = self.net.checker
        checker.on_nic_credit(self)
        super().credit_return(vc)
        checker.post_nic_credit(self)
