"""Runtime fault injection: apply a FaultSchedule to a live Network.

The manager arms the schedule as ordinary engine events (so fault
instants occupy the same ``(time, seq)`` keys on both backends), and
implements the two halves of in-flight handling:

**Fail time** (``_apply_fail``): mark both directed ports of each
failed link dead, invalidate the crossing rows of the shared
RouteCache, then *drain* the dead ports' output queues -- packets
already past the crossbar would otherwise sit on a link that never
transmits again.  Drained packets are rerouted (minimal on the degraded
adjacency, one seeded RNG draw when several candidates survive) into a
sibling output queue, or counted dropped, per ``SimConfig.fault_policy``.
Freed slots re-admit inputs parked on the dead port, so upstream
head-of-line blocking resolves by *flowing through* the dead port's
crossbar into the divert path below.

**Divert** (``divert_enter``): everything else is lazy.  Packets in
input buffers, on wires, or mid-crossbar keep their (now stale) routes
until the moment they would enter a dead port's output queue -- the
``_enter_oq`` seam in the object switch, the ``ENTER`` opcode in the
compiled kernel -- and are rerouted or dropped *there*, at their
current router, against the fault state current at that instant.  This
makes fail/recover races inherently correct: a packet whose target link
recovered before its crossbar traversal finished simply proceeds.

The compiled kernel diverts in C, at ``ENTER`` and in its fail-time
``drain_port`` alike (``fault_divert`` in ``repro/sim/vec/_kernel.c``):
the candidates :meth:`_live_candidates` would give, the one draw of
:meth:`_rewrite` on a resident copy of :attr:`rng` (imported and
exported with the routing RNGs), and :meth:`_rewrite`'s labels.  It
writes :attr:`reroutes` and :attr:`dropped` back before every escape
that runs Python and at the end of the run, so Python code sees them
current.

Rerouted packets keep their original VC labels up to the divert hop and
continue hop-indexed (capped at the provisioned VC count) afterwards;
arrival-VC consistency is preserved because labels before the divert
hop are untouched.  Mid-flight packets always complete the hop already
being transmitted: the model is fail-stop at the transmitter, matching
credit-based hardware where an in-flight flit still lands.

Determinism: fail-time work iterates links, ports and VCs in sorted
order; every event scheduled mirrors the object engine's sequence
consumption exactly (the kernel's ``drain_port`` re-admits parked
inputs and wakes the receiving ports in the object drain's order), and
reroute draws come from one schedule-seeded RNG.
The fault-schedule golden (tests/golden/fault_conformance.json) holds
both backends to the same delivery fingerprint.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, TYPE_CHECKING, Tuple

from repro.resilience.schedule import FaultEvent, FaultSchedule

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.network import Network
    from repro.sim.packet import Packet
    from repro.sim.switch import OutputPort, Router

__all__ = ["FaultManager"]


def _hop_vc(pkt: "Packet", h: int) -> int:
    """The VC *pkt* uses at hop *h*: its label, or 0 on the ejection hop
    (a rewrite at the destination router leaves no label), exactly as
    the switch reads it."""
    vcs = pkt.vcs
    return vcs[h] if h < len(vcs) else 0


class FaultManager:
    """Applies a :class:`FaultSchedule` to one :class:`Network` run."""

    def __init__(self, net: "Network", schedule: FaultSchedule,
                 policy: str = "reroute"):
        if policy not in ("reroute", "drop"):
            raise ValueError(f"unknown fault policy {policy!r}")
        self.net = net
        self.schedule = schedule
        self.policy = policy
        self.failed: set = set()
        self.fired = 0
        self.reroutes = 0
        self.dropped = 0
        self.first_fault_ns: Optional[float] = None
        self._sent_at_fault: Optional[List[int]] = None
        self._events: Tuple[FaultEvent, ...] = ()
        self.cache = None
        # Reroute selection draws; seeded from the schedule text so a
        # given schedule reproduces exactly, independent of traffic.
        self.rng = random.Random("resilience:" + ";".join(schedule.specs))

    # -- arming ---------------------------------------------------------------

    def arm(self) -> None:
        """Expand the schedule against the topology and schedule one
        engine event per fault instant.  Called by
        ``Network._claim_experiment`` before any traffic is scheduled,
        so fault events consume the same leading sequence numbers on
        both backends."""
        net = self.net
        routing = net.routing
        cache = getattr(routing, "cache", None)
        if cache is None:
            raise ValueError(
                "fault injection requires a routing algorithm that takes "
                "its routes from a RouteCache (its .cache); "
                f"{type(routing).__name__} has none and cannot be made "
                "fault-aware")
        self.cache = cache
        cache.runtime_vcs = net.num_vcs
        self._events = self.schedule.expand(net.topology)
        for i, ev in enumerate(self._events):
            net.engine.schedule_at(ev.time, self._fire, i)

    def _fire(self, i: int) -> None:
        ev = self._events[i]
        self.fired += 1
        if ev.kind == "fail":
            self._apply_fail(ev.links)
        else:
            self._apply_recover(ev.links)

    # -- fail / recover -------------------------------------------------------

    def _apply_fail(self, links: Tuple[Tuple[int, int], ...]) -> None:
        net = self.net
        if self.first_fault_ns is None:
            self.first_fault_ns = net.engine.now
            self._sent_at_fault = net.sent_counts()
        cache = self.cache
        dead_ports = []
        for u, v in sorted(links):
            self.failed.add((u, v))
            cache.fail_link(u, v)
            dead_ports += (self._set_dead(u, v, True), self._set_dead(v, u, True))
        if net._vec is None:
            self._drain_object(dead_ports)
        else:
            for gid in dead_ports:
                net._vec.kernel.drain_port(gid)

    def _apply_recover(self, links: Tuple[Tuple[int, int], ...]) -> None:
        """Undo the markings.  Dead output queues are empty by
        construction (drained at fail time, shielded by the divert
        since), so recovery needs no packet handling, no sequence
        numbers and no RNG -- in-flight crossbar traversals toward the
        recovered port proceed normally when they land."""
        cache = self.cache
        for u, v in sorted(links):
            self.failed.discard((u, v))
            cache.restore_link(u, v)
            self._set_dead(u, v, False)
            self._set_dead(v, u, False)

    def _set_dead(self, a: int, b: int, dead: bool):
        """Mark router *a*'s output toward *b* dead (or live again) on
        the engine that runs.  Returns the port as the fail-time drain
        takes it: its gid on the kernel, ``(a, OutputPort)`` on the
        object engine."""
        net = self.net
        out_idx = net.topology.port(a, b)
        vec = net._vec
        if vec is not None:
            gid = vec.st.p_off[a] + out_idx
            vec.kernel.set_dead(gid, dead)
            return gid
        out = net.routers[a].out[out_idx]
        out.dead = dead
        return a, out

    # -- fail-time drain ------------------------------------------------------

    def _drain_object(self, dead_ports) -> None:
        net = self.net
        engine = net.engine
        checker = net.checker
        drop = self.policy == "drop"
        V = net.num_vcs
        for rid, out in dead_ports:
            router = net.routers[rid]
            moved: set = set()
            for ovc in range(V):
                q = out.oq[ovc]
                while q:
                    pkt = q.popleft()
                    out.oq_occ[ovc] -= 1
                    out.queued -= 1
                    if drop:
                        self.dropped += 1
                        if checker is not None:
                            checker.on_fault_drop(pkt)
                    else:
                        h = pkt.hop
                        self._rewrite(pkt, h)
                        nout = router.out[pkt.ports[h]]
                        nvc = _hop_vc(pkt, h)
                        nout.oq[nvc].append(pkt)
                        nout.oq_occ[nvc] += 1
                        nout.queued += 1
                        self.reroutes += 1
                        moved.add(nout.out_idx)
                        if checker is not None:
                            checker.on_fault_move(pkt, rid, nout.out_idx, nvc)
            for ovc in range(V):
                router._admit_pending(out, ovc)
            for out_idx in sorted(moved):
                # One seq each, mirrored by the kernel's PWAKE push;
                # _try_transmit self-guards on a busy port.
                engine.schedule(0.0, router._try_transmit, router.out[out_idx])

    # -- divert (lazy in-flight handling) -------------------------------------

    def divert_enter(self, router: "Router", out: "OutputPort", out_vc: int,
                     pkt: "Packet"):
        """Object-backend divert, called from ``Router._enter_oq`` when
        the target port is dead.  Returns ``None`` (dropped) or the
        ``(port, vc)`` to enter instead."""
        checker = self.net.checker
        if self.policy == "drop":
            out.oq_occ[out_vc] -= 1
            out.queued -= 1
            self.dropped += 1
            if checker is not None:
                checker.on_fault_drop(pkt)
            router._admit_pending(out, out_vc)
            return None
        h = pkt.hop
        self._rewrite(pkt, h)
        out.oq_occ[out_vc] -= 1
        out.queued -= 1
        nout = router.out[pkt.ports[h]]
        nvc = _hop_vc(pkt, h)
        # Transient over-occupancy on the new VC is fine: oq_cap only
        # gates crossbar admission, and the slot drains by transmission.
        nout.oq_occ[nvc] += 1
        nout.queued += 1
        self.reroutes += 1
        if checker is not None:
            checker.on_fault_move(pkt, router.rid, nout.out_idx, nvc)
        router._admit_pending(out, out_vc)
        return nout, nvc

    # -- route rewriting ------------------------------------------------------

    def _live_candidates(self, origin: int, dst: int):
        cache = self.cache
        row = cache.minimal_rows[origin]
        cands = row[dst] if row is not None else None
        if cands is None:
            cands = cache.minimal_fill(origin, dst)
        return cands

    def _rewrite(self, pkt: "Packet", j: int) -> None:
        """Replace the route tail from hop *j* (the packet's current
        router) with a live minimal route to its destination router.
        Labels before hop *j* are preserved (arrival-VC consistency);
        the new tail continues hop-indexed, capped at the provisioned
        VC count.  ``pkt.kind`` is unchanged so delivery fingerprints
        classify packets by their *intended* route kind."""
        routers = pkt.routers
        dst = routers[-1]
        origin = routers[j]
        if origin == dst:
            new_routers = routers[:j] + (dst,)
            new_ports = pkt.ports[:j] + (pkt.ports[-1],)
            new_vcs = pkt.vcs[:j]
        else:
            cands = self._live_candidates(origin, dst)
            route = (cands[self.rng.randrange(len(cands))]
                     if len(cands) > 1 else cands[0])
            tail = route.routers
            vmax = self.net.num_vcs - 1
            new_routers = routers[:j] + tail
            new_ports = pkt.ports[:j] + route.ports + (pkt.ports[-1],)
            new_vcs = pkt.vcs[:j] + tuple(
                min(j + i, vmax) for i in range(len(tail) - 1)
            )
        pkt.routers = new_routers
        pkt.ports = new_ports
        pkt.vcs = new_vcs

    # -- reporting ------------------------------------------------------------

    def post_fault_skew(self, until_ns: float) -> Optional[Dict[str, float]]:
        """Fabric-link utilization max/mean/skew over the window from
        the first failure to *until_ns* (None before any failure)."""
        if self._sent_at_fault is None or self.first_fault_ns is None:
            return None
        window = until_ns - self.first_fault_ns
        if window <= 0:
            return None
        sent = [now - then for now, then
                in zip(self.net.sent_counts(), self._sent_at_fault)]
        return self.net.fabric_link_load(sent, window)

    def summary(self) -> Dict[str, object]:
        """Counters for CLI/experiment reporting."""
        return {
            "events_fired": self.fired,
            "reroutes": self.reroutes,
            "dropped": self.dropped,
            "first_fault_ns": self.first_fault_ns,
            "links_down": len(self.failed),
        }
