"""Dependency-DAG representation of a communication workload.

A workload is a set of point-to-point messages with *happens-after*
edges: a message may enter the network only once every one of its
dependencies has been fully delivered.  This is the closed-loop dual of
the open-loop synthetic patterns of :mod:`repro.traffic` -- the thing
that actually separates topologies on real applications is how fast a
*schedule* completes, not the steady-state rate a pattern sustains
(cf. the Slim Fly deployment study, arXiv:2310.03742).

:class:`Workload` is pure data plus graph algorithms (validation,
critical path); driving it through the simulator is the job of
:class:`repro.workload.driver.WorkloadDriver`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = ["Message", "Workload", "CriticalPath"]


@dataclass(frozen=True)
class Message:
    """One send: *src* node transmits *size* bytes to *dst* node.

    ``deps`` lists message ids that must be fully delivered before this
    message may be released.  ``phase`` is a presentation label (e.g.
    ``"reduce-scatter"`` or ``"step3"``) used for per-phase statistics.
    A message with ``src == dst`` or ``size == 0`` is a pure control
    dependency: it completes the moment it is released, without
    touching the network.
    """

    mid: int
    src: int
    dst: int
    size: int
    deps: Tuple[int, ...] = ()
    phase: str = ""

    @property
    def is_local(self) -> bool:
        return self.src == self.dst or self.size == 0


@dataclass
class CriticalPath:
    """Longest happens-after chain through the DAG."""

    #: Number of messages on the chain (DAG depth).
    length: int
    #: Total bytes serialized along the chain.
    bytes: int
    #: Message ids on the chain, in dependency order.
    messages: List[int] = field(default_factory=list)

    #: Bytes of each chain message (0 for control-only), in chain order.
    chain_bytes: List[int] = field(default_factory=list)

    def ideal_ns(self, config) -> float:
        """Zero-contention lower bound on the chain's completion time.

        Each message on the chain must at least serialize through its
        source NIC and traverse one switch: ``packets * packet_time +
        switch + 2 links`` per message.  Real completion times include
        queueing and contention on top of this bound.
        """
        pkt = config.packet_bytes
        per_msg = config.switch_latency_ns + 2 * config.link_latency_ns
        total = 0.0
        for size in self.chain_bytes:
            if size > 0:  # control-only chain links are instantaneous
                total += per_msg + -(-size // pkt) * config.packet_time_ns
        return total


class Workload:
    """A named DAG of :class:`Message` nodes.

    Build one with the generators in
    :mod:`repro.workload.collectives`, or incrementally::

        w = Workload("pipeline")
        a = w.add(src=0, dst=1, size=4096)
        b = w.add(src=1, dst=2, size=4096, deps=[a])

    The class maintains insertion order (message ids are dense,
    starting at 0) and validates dependency references eagerly;
    :meth:`validate` additionally proves acyclicity.
    """

    def __init__(self, name: str = "workload"):
        self.name = name
        self.messages: Dict[int, Message] = {}

    # -- construction -------------------------------------------------------

    def add(
        self,
        src: int,
        dst: int,
        size: int,
        deps: Iterable[int] = (),
        phase: str = "",
    ) -> int:
        """Append one message; returns its id."""
        if size < 0:
            raise ValueError(f"message size {size} must be >= 0")
        if src < 0 or dst < 0:
            raise ValueError(f"bad endpoints ({src}, {dst})")
        mid = len(self.messages)
        dep_tuple = tuple(dict.fromkeys(int(d) for d in deps))
        for d in dep_tuple:
            if d not in self.messages:
                raise ValueError(f"message {mid}: unknown dependency {d}")
            if d == mid:
                raise ValueError(f"message {mid} depends on itself")
        self.messages[mid] = Message(mid, src, dst, size, dep_tuple, phase)
        return mid

    # -- inspection ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self.messages)

    def __iter__(self):
        return iter(self.messages.values())

    @property
    def num_messages(self) -> int:
        return len(self.messages)

    @property
    def total_bytes(self) -> int:
        return sum(m.size for m in self.messages.values() if not m.is_local)

    @property
    def phases(self) -> List[str]:
        """Distinct phase labels, in first-appearance order."""
        seen = dict.fromkeys(m.phase for m in self.messages.values())
        return list(seen)

    def endpoints(self) -> Tuple[int, ...]:
        """Every node that sends or receives, ascending."""
        nodes = set()
        for m in self.messages.values():
            nodes.add(m.src)
            nodes.add(m.dst)
        return tuple(sorted(nodes))

    def dependents(self) -> Dict[int, List[int]]:
        """Forward adjacency: ``{mid: [messages depending on mid]}``."""
        out: Dict[int, List[int]] = {mid: [] for mid in self.messages}
        for m in self.messages.values():
            for d in m.deps:
                out[d].append(m.mid)
        return out

    # -- graph algorithms ---------------------------------------------------

    def topological_order(self) -> List[int]:
        """Kahn's algorithm; raises ``ValueError`` on a cycle."""
        return self._kahn(self.dependents())

    def _kahn(self, fwd: Dict[int, List[int]]) -> List[int]:
        """:meth:`topological_order` over the dependents map *fwd*."""
        indeg = {mid: len(m.deps) for mid, m in self.messages.items()}
        ready = deque(mid for mid, d in indeg.items() if d == 0)
        order: List[int] = []
        while ready:
            mid = ready.popleft()
            order.append(mid)
            for nxt in fwd[mid]:
                indeg[nxt] -= 1
                if indeg[nxt] == 0:
                    ready.append(nxt)
        if len(order) != len(self.messages):
            stuck = sorted(mid for mid, d in indeg.items() if d > 0)
            raise ValueError(
                f"workload {self.name!r}: dependency cycle involving "
                f"messages {stuck[:8]}{'...' if len(stuck) > 8 else ''}"
            )
        return order

    def validate(self, num_nodes: Optional[int] = None) -> None:
        """Full structural check: endpoints in range, DAG acyclic."""
        self._checked_graph(num_nodes)

    def _checked_graph(
        self, num_nodes: Optional[int] = None
    ) -> Tuple[Dict[int, List[int]], List[int]]:
        """:meth:`validate`, returning the dependents map and the
        topological order its checks built, so that one run of a driver
        builds each once (see :meth:`_critical_path`)."""
        if not self.messages:
            raise ValueError(f"workload {self.name!r} has no messages")
        if num_nodes is not None:
            for m in self.messages.values():
                if m.src >= num_nodes or m.dst >= num_nodes:
                    raise ValueError(
                        f"workload {self.name!r}: message {m.mid} endpoints "
                        f"({m.src}, {m.dst}) exceed node count {num_nodes}"
                    )
        fwd = self.dependents()
        return fwd, self._kahn(fwd)

    def critical_path(self) -> CriticalPath:
        """Longest chain by serialized bytes (ties broken by length).

        Local (control-only) messages contribute zero bytes but still
        count toward the chain length, so a barrier-heavy schedule shows
        a deep critical path even when it moves few bytes.
        """
        return self._critical_path(self.topological_order())

    def _critical_path(self, order: List[int]) -> CriticalPath:
        """:meth:`critical_path` over the topological *order*."""
        best_bytes: Dict[int, int] = {}
        best_len: Dict[int, int] = {}
        prev: Dict[int, Optional[int]] = {}
        for mid in order:
            m = self.messages[mid]
            contrib = 0 if m.is_local else m.size
            b, ln, p = contrib, 1, None
            for d in m.deps:
                cand_b = best_bytes[d] + contrib
                cand_ln = best_len[d] + 1
                if (cand_b, cand_ln) > (b, ln):
                    b, ln, p = cand_b, cand_ln, d
            best_bytes[mid], best_len[mid], prev[mid] = b, ln, p
        tail = max(order, key=lambda mid: (best_bytes[mid], best_len[mid]))
        chain: List[int] = []
        cur: Optional[int] = tail
        while cur is not None:
            chain.append(cur)
            cur = prev[cur]
        chain.reverse()
        return CriticalPath(
            length=best_len[tail],
            bytes=best_bytes[tail],
            messages=chain,
            chain_bytes=[
                0 if self.messages[mid].is_local else self.messages[mid].size
                for mid in chain
            ],
        )

    def remap(self, node_map: Sequence[int]) -> "Workload":
        """A copy with rank ``r`` placed on node ``node_map[r]``.

        The default generators use the paper's contiguous mapping
        (rank == node); remapping lets placement studies reuse the same
        schedule.
        """
        table = list(node_map)
        out = Workload(self.name)
        for m in self.messages.values():
            out.add(table[m.src], table[m.dst], m.size, m.deps, m.phase)
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<Workload {self.name!r}: {self.num_messages} messages, "
            f"{self.total_bytes} bytes>"
        )
