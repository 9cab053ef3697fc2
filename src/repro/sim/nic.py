"""Network interface (end-node) model.

Each end-node owns a NIC with:

- an unbounded *source queue* of packet descriptors (drivers push into
  it, or attach a pull-source iterator for finite exchanges),
- a serializing injection link toward its router (same bandwidth and
  latency as network links),
- credit-based flow control toward the router's injection input buffer.

Routes are resolved when a packet *leaves* the NIC (the paper's "at the
moment of the packet's injection", Sec. 3.3), so UGAL-L sees live
congestion information.
"""

from __future__ import annotations

from collections import deque
from typing import Iterator, Optional, Tuple, TYPE_CHECKING

from repro.sim.packet import Packet

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.network import Network
    from repro.sim.switch import Router

__all__ = ["NIC", "bad_size"]

#: A packet descriptor: (destination node, size in bytes, message id).
Descriptor = Tuple[int, int, Optional[int]]


def bad_size(size) -> ValueError:
    """The error both engines' ``submit`` and ``submit_message`` raise
    for a size below one byte (the kernel's C formats the same text)."""
    return ValueError(f"size {size!r} must be at least 1 byte")


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
        "source",
        "credits",
        "busy",
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
        self.queue: deque = deque()
        self.source: Optional[Iterator[Descriptor]] = None
        self.credits = cfg.buffer_packets_per_port
        self.busy = False
        self._ser = cfg.packet_time_ns
        self._link = cfg.link_latency_ns
        self.queued_packets = 0
        # Times a pending packet found the link free but no injection
        # credit; each such stall is resumed by credit_return().
        self.credit_stalls = 0

    # -- driver interface ---------------------------------------------------

    def submit(self, dst_node: int, size: int, msg_id: Optional[int] = None) -> None:
        """Queue one packet for transmission (time-driven traffic)."""
        num_nodes = len(self.net.nics)
        if not 0 <= dst_node < num_nodes:
            raise IndexError(
                f"destination node {dst_node} out of range [0, {num_nodes})")
        if size < 1:
            raise bad_size(size)
        self.queue.append((dst_node, size, msg_id, self.engine.now))
        self.queued_packets += 1
        if not self.busy:
            self.try_send()

    def submit_message(
        self, dst_node: int, size: int, msg_id: Optional[int] = None
    ) -> None:
        """Queue a *size*-byte message as ``packet_bytes`` packets (the
        last one holds the remainder): one :meth:`submit` per packet,
        in order.  The first submit checks the destination and size."""
        packet = self.net.config.packet_bytes
        self.submit(dst_node, min(packet, size), msg_id)
        for offset in range(packet, size, packet):
            self.submit(dst_node, min(packet, size - offset), msg_id)

    def set_source(self, source: Iterator[Descriptor]) -> None:
        """Attach a pull-source of descriptors (finite exchanges).

        The NIC draws the next descriptor whenever its queue is empty and
        the link is free, so a finite exchange never materialises more
        than one outstanding descriptor per node.
        """
        self.source = source
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
            if self.queue or self.source is not None:
                self.credit_stalls += 1
            return
        gen_time = self.engine.now
        if self.queue:
            dst_node, size, msg_id, gen_time = self.queue.popleft()
            self.queued_packets -= 1
        elif self.source is not None:
            try:
                dst_node, size, msg_id = next(self.source)
            except StopIteration:
                self.source = None
                return
        else:
            return

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
