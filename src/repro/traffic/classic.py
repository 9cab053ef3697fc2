"""Classic synthetic traffic permutations and hotspot traffic.

Standard adversarial/benign patterns from the interconnection-network
literature (Dally & Towles) that complement the paper's worst-case
constructions: bit-complement, bit-reverse, transpose and tornado
permutations, plus configurable hotspot traffic.  They slot into the
same synthetic-traffic interface as everything else, so any topology /
routing combination can be evaluated against them.

The bit permutations are defined over ``2^b``-node domains; nodes
beyond the largest power of two stay idle (partial permutation), which
keeps the patterns well-formed on arbitrary node counts.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence

from repro.traffic.base import PermutationTraffic

__all__ = [
    "BitComplement",
    "BitReverse",
    "Transpose",
    "Tornado",
    "HotspotTraffic",
]


def _bits(num_nodes: int) -> int:
    b = int(math.log2(num_nodes))
    return b


def _partial(dst: Sequence[int], num_nodes: int) -> List[int]:
    """Embed a 2^b-domain permutation into num_nodes (rest idle)."""
    full = list(dst) + [-1] * (num_nodes - len(dst))
    # Self-destinations become idle (e.g. fixed points of transpose).
    return [-1 if d == src else d for src, d in enumerate(full)]


class BitComplement(PermutationTraffic):
    """``dst = ~src`` over the low ``b`` bits (b = floor(log2 N))."""

    def __init__(self, num_nodes: int):
        b = _bits(num_nodes)
        if b < 1:
            raise ValueError(f"BitComplement: need >= 2 nodes, got {num_nodes}")
        size = 1 << b
        dst = [~src & (size - 1) for src in range(size)]
        super().__init__(_partial(dst, num_nodes))
        self.bits = b


class BitReverse(PermutationTraffic):
    """``dst`` = the bit-reversal of ``src`` over ``b`` bits."""

    def __init__(self, num_nodes: int):
        b = _bits(num_nodes)
        if b < 1:
            raise ValueError(f"BitReverse: need >= 2 nodes, got {num_nodes}")
        dst = [int(format(s, f"0{b}b")[::-1], 2) for s in range(1 << b)]
        super().__init__(_partial(dst, num_nodes))
        self.bits = b


class Transpose(PermutationTraffic):
    """Matrix-transpose permutation: swap the high and low halves of the
    address bits (``b`` rounded down to even)."""

    def __init__(self, num_nodes: int):
        b = _bits(num_nodes)
        b -= b % 2
        if b < 2:
            raise ValueError(f"Transpose: need >= 4 nodes, got {num_nodes}")
        size = 1 << b
        half = b // 2
        mask = (1 << half) - 1
        dst = [((src & mask) << half) | (src >> half) for src in range(size)]
        super().__init__(_partial(dst, num_nodes))
        self.bits = b


class Tornado(PermutationTraffic):
    """Half-way shift: ``dst = src + ceil(N/2) - 1 mod N`` (the classic
    torus adversary; on diameter-two topologies it behaves like a large
    shift)."""

    def __init__(self, num_nodes: int):
        if num_nodes < 3:
            raise ValueError(f"Tornado: need >= 3 nodes, got {num_nodes}")
        offset = (num_nodes + 1) // 2 - 1
        if offset == 0:
            offset = 1
        super().__init__([(src + offset) % num_nodes
                          for src in range(num_nodes)])


class HotspotTraffic:
    """Uniform traffic with a configurable hotspot component.

    With probability *hot_fraction* a packet targets a uniformly chosen
    hotspot node; otherwise a uniform destination.  Models the incast
    behaviour of parallel file systems or reduction roots.
    """

    def __init__(self, num_nodes: int, hotspots, hot_fraction: float = 0.2):
        if num_nodes < 2:
            raise ValueError(f"HotspotTraffic: need >= 2 nodes, got {num_nodes}")
        self.hotspots = [int(h) for h in hotspots]
        if not self.hotspots:
            raise ValueError("HotspotTraffic: need at least one hotspot")
        if any(not (0 <= h < num_nodes) for h in self.hotspots):
            raise ValueError("HotspotTraffic: hotspot out of range")
        if not (0.0 <= hot_fraction <= 1.0):
            raise ValueError(f"HotspotTraffic: hot_fraction {hot_fraction} not in [0,1]")
        self.num_nodes = num_nodes
        self.hot_fraction = hot_fraction

    def pick_destination(self, src_node: int, rng) -> Optional[int]:
        if rng.random() < self.hot_fraction:
            dst = self.hotspots[rng.randrange(len(self.hotspots))]
            if dst != src_node:
                return dst
        dst = rng.randrange(self.num_nodes - 1)
        return dst if dst < src_node else dst + 1
