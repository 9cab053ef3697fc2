"""Network interface (end-node) model.

Each end-node owns a NIC with:

- an unbounded queue of *messages*, one entry each, into which every
  driver -- open-loop traffic, the closed-loop workload driver, a
  finite exchange -- puts traffic with :meth:`NIC.submit`; the NIC cuts
  one ``packet_bytes`` packet off the head entry per send.  An in-order
  message stays at the head until it is empty.  An interleaved message
  that sent a packet moves to the tail before the next send, so every
  message queued by then sends once before it sends again (round robin,
  as concurrent non-blocking sends),
- a serializing injection link toward its router (same bandwidth and
  latency as network links),
- credit-based flow control toward the router's injection input buffer.

Routes are resolved when a packet *leaves* the NIC (the paper's "at the
moment of the packet's injection", Sec. 3.3), so UGAL-L sees live
congestion information.
"""

from __future__ import annotations

from collections import deque
from operator import index
from typing import Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.network import Network
    from repro.sim.switch import Router

__all__ = ["NIC", "bad_msg_id", "bad_size"]


def bad_size(size) -> ValueError:
    """The error both engines' ``submit`` raises for a size below one
    byte (the kernel's C formats the same text)."""
    return ValueError(f"size {size!r} must be at least 1 byte")


def bad_msg_id(msg_id) -> ValueError:
    """The error both engines' ``submit`` raises for a message id outside
    ``[0, 2**63)`` (the kernel's C formats the same text)."""
    return ValueError(f"message id {msg_id!r} must be in [0, 2**63)")


class NIC:
    """Injection endpoint for one node."""

    __slots__ = (
        "node",
        "net",
        "engine",
        "router",
        "router_id",
        "in_idx",
        "queue",
        "credits",
        "busy",
        "_turn_over",
        "_packet",
        "_ser",
        "_link",
        "queued_packets",
        "credit_stalls",
    )

    def __init__(self, node: int, net: "Network", router: "Router", in_idx: int):
        cfg = net.config
        self.node = node
        self.net = net
        self.engine = net.engine
        self.router = router
        self.router_id = router.rid
        self.in_idx = in_idx
        # Entries (dst, bytes left, msg_id, post time, interleave).
        self.queue: deque = deque()
        self.credits = cfg.buffer_packets_per_port
        self.busy = False
        # The head entry is interleaved and sent the last packet.
        self._turn_over = False
        self._packet = cfg.packet_bytes
        self._ser = cfg.packet_time_ns
        self._link = cfg.link_latency_ns
        #: Packets the queued messages have not sent yet.
        self.queued_packets = 0
        # Times a pending packet found the link free but no injection
        # credit; each such stall is resumed by credit_return().
        self.credit_stalls = 0

    # -- driver interface ---------------------------------------------------

    def submit(
        self,
        dst_node: int,
        size: int,
        msg_id: Optional[int] = None,
        interleave: bool = False,
    ) -> None:
        """Queue a *size*-byte message, sent as ``packet_bytes`` packets
        (the last one holds the remainder) that all carry the current
        time as their ``gen_time`` and *msg_id*.  An *interleave* message
        sends one packet per turn with the other queued messages
        (non-blocking sends); otherwise its packets leave back to back.

        *dst_node*, *size* and a *msg_id* other than ``None`` go through
        :func:`operator.index` (a float or a string raises ``TypeError``)
        and are stored as plain ints; a *msg_id* must lie in
        ``[0, 2**63)``.  The kernel's NIC takes the same arguments with
        the same errors."""
        dst_node = index(dst_node)
        size = index(size)
        num_nodes = len(self.net.nics)
        if not 0 <= dst_node < num_nodes:
            raise IndexError(
                f"destination node {dst_node} out of range [0, {num_nodes})")
        if size < 1:
            raise bad_size(size)
        if msg_id is not None:
            msg_id = index(msg_id)
            if not 0 <= msg_id < 2**63:
                raise bad_msg_id(msg_id)
        self.queue.append((dst_node, size, msg_id, self.engine.now, interleave))
        self.queued_packets += -(-size // self._packet)
        if not self.busy:
            self.try_send()

    # -- transmission ----------------------------------------------------------

    def try_send(self) -> None:
        """Start transmitting the next packet if link and credits allow.

        Both blocking conditions re-attempt deterministically: a busy
        link retries from :meth:`_link_free`, and exhausted credits
        retry from :meth:`credit_return` the moment the router frees an
        injection-buffer slot.  Engine events at equal timestamps run in
        schedule order (the heap's sequence tie-breaker), so the resume
        order -- and therefore packet order -- is reproducible run to
        run and independent of the routing implementation.
        """
        if self.busy:
            return
        if self.credits <= 0:
            # Link free but no downstream slot: the send is stalled
            # until a credit returns.  Count it so tests (and the
            # invariant checker's reports) can see the back-pressure.
            if self.queue:
                self.credit_stalls += 1
            return
        queue = self.queue
        if not queue:
            return
        if self._turn_over:
            self._turn_over = False
            queue.rotate(-1)  # the head to the tail
        dst_node, left, msg_id, gen_time, interleave = queue[0]
        size = min(left, self._packet)
        if left > size:
            queue[0] = (dst_node, left - size, msg_id, gen_time, interleave)
            self._turn_over = interleave
        else:
            queue.popleft()
        self.queued_packets -= 1

        pkt = self.net.make_packet(self.node, dst_node, size, msg_id, gen_time)
        pkt.send_time = self.engine.now
        self.net.stats.record_inject(pkt)

        self.credits -= 1
        self.busy = True
        engine = self.engine
        engine.schedule(self._ser, self._link_free)
        engine.schedule(self._ser + self._link, self.router.receive, self.in_idx, 0, pkt)

    def _link_free(self) -> None:
        self.busy = False
        self.try_send()

    def credit_return(self, vc: int) -> None:
        """Injection-buffer slot freed at the router (credit callback)."""
        self.credits += 1
        if not self.busy:
            self.try_send()
