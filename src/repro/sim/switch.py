"""Virtual-channel input-output-buffered switch with credit flow control.

Models the paper's switch (Sec. 4.1): a VC-capable *input-output-
buffered* architecture with 100 KB of buffering per port per direction,
credit-based flow control, a 100 ns traversal latency and link-rate
serialization on every output.

Pipeline of one packet through a router:

1. ``receive(in_idx, vc, pkt)`` -- the packet lands in input buffer
   ``(in_idx, vc)``; the per-output ``queued`` counter (the UGAL-L
   congestion signal) is incremented.
2. *Crossbar transfer* -- the head of each input VC buffer moves into
   its target output's per-VC output queue as soon as that queue has
   space, paying the switch traversal latency.  Transfers do not
   contend with link transmission (the input-output-buffered design's
   internal speedup), so head-of-line blocking only occurs when an
   output buffer fills.  The input slot is freed at transfer time and
   the credit returned upstream after the reverse link latency.
3. *Link transmission* -- when the output link is free, the oldest
   output-queue packet whose next-hop VC holds a downstream credit is
   serialized onto the link (round-robin across VCs); it arrives at the
   downstream input (or the destination NIC) after
   ``serialization + link`` ns.  Ejection ports need no credits: the
   NIC sinks at link rate.

Credits mirror the *downstream input buffer*: decremented at link
transmission, returned when the packet later leaves that input buffer.
"""

from __future__ import annotations

from collections import deque
from typing import List, Optional, TYPE_CHECKING

from repro.sim.packet import Packet

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Engine
    from repro.sim.network import Network

__all__ = ["OutputPort", "Router"]


class OutputPort:
    """One router output: output queues, link state, downstream credits."""

    __slots__ = (
        "out_idx",
        "busy",
        "dead",
        "oq",
        "oq_occ",
        "oq_cap",
        "pending_inputs",
        "credits",
        "queued",
        "downstream",
        "downstream_in_idx",
        "eject_node",
        "rr_vc",
        "sent_packets",
    )

    def __init__(
        self,
        out_idx: int,
        num_vcs: int,
        oq_capacity: int,
        credit_capacity: int,
        downstream: Optional["Router"],
        downstream_in_idx: int,
        eject_node: int = -1,
    ):
        self.out_idx = out_idx
        self.busy = False
        # Failed-link marker (repro.resilience): a dead port accepts no
        # new output-queue entries -- packets headed into it are
        # diverted (rerouted or dropped) at _enter_oq time.
        self.dead = False
        self.oq: List[deque] = [deque() for _ in range(num_vcs)]
        self.oq_occ = [0] * num_vcs
        self.oq_cap = oq_capacity
        # Inputs whose head packet waits for output-buffer space.
        self.pending_inputs: deque = deque()
        # Ejection ports (downstream is a NIC) are not credit-limited: the
        # node sinks at link rate, which the serialization already models.
        self.credits: Optional[List[int]] = (
            None if downstream is None else [credit_capacity] * num_vcs
        )
        self.queued = 0
        self.downstream = downstream
        self.downstream_in_idx = downstream_in_idx
        self.eject_node = eject_node
        self.rr_vc = 0
        # Packets transmitted since the last utilization reset; with
        # fixed-size packets, busy time = sent_packets * serialization.
        self.sent_packets = 0


class Router:
    """One simulated switch."""

    __slots__ = (
        "rid",
        "net",
        "engine",
        "num_vcs",
        "in_q",
        "in_upstream",
        "out",
        "_ser",
        "_switch",
        "_link",
    )

    def __init__(self, rid: int, net: "Network", num_inputs: int, num_vcs: int):
        cfg = net.config
        self.rid = rid
        self.net = net
        self.engine: "Engine" = net.engine
        self.num_vcs = num_vcs
        # in_q[in_idx][vc] -> deque of packets.
        self.in_q: List[List[deque]] = [
            [deque() for _ in range(num_vcs)] for _ in range(num_inputs)
        ]
        # Upstream credit sinks: a router output-port sink for router
        # inputs, the NIC for injection inputs; wired by Network.
        self.in_upstream: List[object] = [None] * num_inputs
        self.out: List[OutputPort] = []
        self._ser = cfg.packet_time_ns
        self._switch = cfg.switch_latency_ns
        self._link = cfg.link_latency_ns

    # -- stage 1: arrival into the input buffer --------------------------------

    def receive(self, in_idx: int, vc: int, pkt: Packet) -> None:
        q = self.in_q[in_idx][vc]
        self.out[pkt.ports[pkt.hop]].queued += 1
        q.append(pkt)
        if len(q) == 1:
            self._try_transfer(in_idx, vc)

    # -- stage 2: crossbar transfer into the output queue -------------------------

    def _try_transfer(self, in_idx: int, vc: int) -> None:
        q = self.in_q[in_idx][vc]
        engine = self.engine
        upstream = self.in_upstream[in_idx]
        while q:
            pkt = q[0]
            hop = pkt.hop
            out = self.out[pkt.ports[hop]]
            vcs = pkt.vcs
            out_vc = vcs[hop] if hop < len(vcs) else 0
            if out.oq_occ[out_vc] >= out.oq_cap:
                out.pending_inputs.append((in_idx, vc))
                return
            out.oq_occ[out_vc] += 1
            q.popleft()
            # Input slot freed: return the credit upstream.
            if upstream is not None:
                engine.schedule(self._link, upstream.credit_return, vc)
            engine.schedule(self._switch, self._enter_oq, out, out_vc, pkt)

    def _enter_oq(self, out: OutputPort, out_vc: int, pkt: Packet) -> None:
        if out.dead:
            res = self.net.fault_manager.divert_enter(self, out, out_vc, pkt)
            if res is None:
                return
            out, out_vc = res
        out.oq[out_vc].append(pkt)
        if not out.busy:
            self._try_transmit(out)

    # -- stage 3: link transmission --------------------------------------------

    def _try_transmit(self, out: OutputPort) -> None:
        if out.busy:
            return
        credits = out.credits
        num_vcs = self.num_vcs
        oqs = out.oq
        vc = out.rr_vc
        for _ in range(num_vcs):
            if vc >= num_vcs:
                vc -= num_vcs
            oq = oqs[vc]
            if not oq:
                vc += 1
                continue
            if credits is not None and credits[vc] <= 0:
                vc += 1
                continue
            pkt = oq.popleft()
            out.oq_occ[vc] -= 1
            out.queued -= 1
            out.sent_packets += 1
            out.rr_vc = (vc + 1) % num_vcs
            if credits is not None:
                credits[vc] -= 1
            out.busy = True
            engine = self.engine
            engine.schedule(self._ser, self._link_free, out)
            if out.downstream is None:
                engine.schedule(self._ser + self._link, self.net.deliver, pkt)
            else:
                pkt.hop += 1
                engine.schedule(
                    self._ser + self._link,
                    out.downstream.receive,
                    out.downstream_in_idx,
                    vc,
                    pkt,
                )
            # An output-buffer slot freed: admit a waiting input if any.
            self._admit_pending(out, vc)
            return

    def _admit_pending(self, out: OutputPort, freed_vc: int) -> None:
        # Single-pass scan: deque *iteration* is O(1) per element, whereas
        # the previous rotate(-1)-until-match loop paid an O(n) deque[0]
        # peek plus a rotate per miss.  The end state is bit-identical to
        # the rotate version: on a match at position i the deque is
        # rotated by -i and the match popped (so the elements that were
        # skipped move to the back, exactly as before); with no match the
        # deque is left untouched (a full rotation cycle is the identity).
        pending = out.pending_inputs
        in_q = self.in_q
        i = 0
        for in_idx, vc in pending:
            pkt = in_q[in_idx][vc][0]
            hop = pkt.hop
            vcs = pkt.vcs
            if (vcs[hop] if hop < len(vcs) else 0) == freed_vc:
                if i:
                    pending.rotate(-i)
                pending.popleft()
                self._try_transfer(in_idx, vc)
                return
            i += 1

    def _link_free(self, out: OutputPort) -> None:
        out.busy = False
        self._try_transmit(out)

    # -- credit sink for our own outputs ---------------------------------------

    def make_credit_sink(self, out_idx: int):
        """An object exposing ``credit_return(vc)`` for output *out_idx*;
        registered as ``in_upstream`` at the downstream router."""
        return _PortCreditSink(self, self.out[out_idx])


class _PortCreditSink:
    """Routes returned credits to the owning router's output port."""

    __slots__ = ("router", "port")

    def __init__(self, router: Router, port: OutputPort):
        self.router = router
        self.port = port

    def credit_return(self, vc: int) -> None:
        credits = self.port.credits
        assert credits is not None
        credits[vc] += 1
        if not self.port.busy:
            self.router._try_transmit(self.port)
