"""Traffic pattern abstractions.

Two families (matching the paper's Sec. 4.3 / 4.4 split):

- *synthetic* rate-driven patterns expose
  ``pick_destination(src_node, rng) -> Optional[int]`` and are run
  open-loop at a configured injection load;
- *exchange* patterns expose ``node_messages(node) -> iterable of
  (dst_node, size_bytes)`` and are simulated to completion.
"""

from __future__ import annotations

from array import array
from typing import Iterable, List, Optional, Protocol, Sequence, Tuple

__all__ = [
    "SyntheticTraffic",
    "ExchangeTraffic",
    "PermutationTraffic",
    "bad_destination",
]


def bad_destination(src_node: int, dst, num_nodes: int) -> ValueError:
    """The error both engines raise from ``run_synthetic`` for a
    ``pick_destination`` result that is neither ``None`` nor another
    node in ``[0, num_nodes)``."""
    if dst == src_node:
        return ValueError(f"pattern sent node {src_node} traffic to itself")
    return ValueError(
        f"pattern sent node {src_node} traffic to node {dst!r}, "
        f"outside [0, {num_nodes})"
    )


class SyntheticTraffic(Protocol):
    """Rate-driven pattern: chooses a destination per generated packet."""

    def pick_destination(self, src_node: int, rng) -> Optional[int]:
        """Destination for the next packet of *src_node* (``None`` = idle)."""
        ...


class ExchangeTraffic(Protocol):
    """Finite exchange: an ordered message list per node."""

    def node_messages(self, node: int) -> Iterable[Tuple[int, int]]:
        """Ordered ``(dst_node, size_bytes)`` messages for *node*."""
        ...


class PermutationTraffic:
    """Fixed permutation traffic: node ``i`` always sends to ``dst[i]``.

    Nodes whose entry is negative stay idle.  Used for the adversarial
    worst-case patterns of Sec. 4.2 (which are all permutations, so the
    pattern is never end-node limited).
    """

    def __init__(self, destinations: Sequence[int]):
        #: Each node's destination, an ``array('q')`` (negative: idle).
        self.destinations = array("q", destinations)
        n = len(self.destinations)
        active = [d for d in self.destinations if d >= 0]
        if any(d >= n for d in active):
            raise ValueError("destination out of range")
        if any(d == src for src, d in enumerate(self.destinations)):
            raise ValueError("self-destination in permutation")
        if len(set(active)) != len(active):
            raise ValueError("destinations are not a (partial) permutation")

    def pick_destination(self, src_node: int, rng) -> Optional[int]:
        dst = self.destinations[src_node]
        return dst if dst >= 0 else None

    def as_messages(self, size_bytes: int) -> List[List[Tuple[int, int]]]:
        """The same pattern as a single-message-per-node exchange."""
        return [[(dst, size_bytes)] if dst >= 0 else []
                for dst in self.destinations]
