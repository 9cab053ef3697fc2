"""Core topology model shared by every network in the paper.

A :class:`Topology` is an undirected router graph plus an assignment of
end-nodes to routers.  Construction code in the sibling modules
(:mod:`repro.topology.slimfly`, :mod:`repro.topology.mlfm`, ...) produces
instances of (subclasses of) this class; routing, analysis and the
simulator consume them through the interface defined here.

Conventions
-----------
- Routers are integers ``0 .. num_routers - 1``.  Each concrete topology
  chooses its router numbering to match the paper's "morphology order"
  (Sec. 4.4) so that the contiguous process-to-node mapping used in the
  exchange experiments is reproduced faithfully.
- End-nodes are integers ``0 .. num_nodes - 1``, assigned contiguously to
  routers in router-id order (only routers with ``p > 0`` attached nodes
  receive ids).
- ``link_class(u, v)`` classifies the *directed* channel ``u -> v`` for
  deadlock analysis: topologies with an up/down structure (the SSPTs:
  MLFM and OFT) return :data:`LINK_UP` for channels toward the hub level
  and :data:`LINK_DOWN` for channels away from it; flat topologies (Slim
  Fly, HyperX) return :data:`LINK_FLAT`.
"""

from __future__ import annotations

from array import array
from typing import (TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence,
                    Set, Tuple)

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np

__all__ = ["Topology", "LINK_FLAT", "LINK_UP", "LINK_DOWN"]

LINK_FLAT = 0
LINK_UP = 1
LINK_DOWN = 2


class Topology:
    """An undirected router graph with end-nodes attached to routers.

    Parameters
    ----------
    name:
        Human-readable identifier, e.g. ``"SF(q=13,p=9)"``.
    adjacency:
        ``adjacency[r]`` is the list of routers adjacent to router ``r``.
        Must be symmetric, loop-free and duplicate-free.
    nodes_per_router:
        ``nodes_per_router[r]`` end-nodes are attached to router ``r``.
    params:
        The defining parameters of the instance (for reporting).
    """

    def __init__(
        self,
        name: str,
        adjacency: Sequence[Sequence[int]],
        nodes_per_router: Sequence[int],
        params: Optional[Dict[str, object]] = None,
    ):
        if len(adjacency) != len(nodes_per_router):
            raise ValueError(
                f"{name}: adjacency ({len(adjacency)} routers) and nodes_per_router "
                f"({len(nodes_per_router)}) disagree"
            )
        self.name = name
        self.params: Dict[str, object] = dict(params or {})
        self._adj: List[List[int]] = [sorted(set(neigh)) for neigh in adjacency]
        self._validate_adjacency()
        self._nodes_per_router: List[int] = [int(c) for c in nodes_per_router]
        if any(c < 0 for c in self._nodes_per_router):
            raise ValueError(f"{name}: negative node count")

        # Contiguous node-id assignment in router order.
        self._router_nodes: List[List[int]] = []
        #: The router of each end-node, an ``array('q')``.
        self.node_router = array("q")
        nid = 0
        for r, count in enumerate(self._nodes_per_router):
            self._router_nodes.append(list(range(nid, nid + count)))
            self.node_router.extend([r] * count)
            nid += count

        # Derived caches.
        self._neighbor_sets: List[Set[int]] = [set(n) for n in self._adj]
        self._port_of: List[Dict[int, int]] = [
            {neighbor: port for port, neighbor in enumerate(neigh)} for neigh in self._adj
        ]

    # -- size & cost metrics ----------------------------------------------

    @property
    def num_routers(self) -> int:
        """Number of routers ``R``."""
        return len(self._adj)

    @property
    def num_nodes(self) -> int:
        """Number of end-nodes ``N``."""
        return len(self.node_router)

    @property
    def num_router_links(self) -> int:
        """Number of router-to-router links."""
        return sum(len(n) for n in self._adj) // 2

    @property
    def num_links(self) -> int:
        """Total links ``Nl`` (router-router plus node-router)."""
        return self.num_router_links + self.num_nodes

    @property
    def num_ports(self) -> int:
        """Total router ports ``Np`` (network ports plus node-facing ports)."""
        return sum(len(n) for n in self._adj) + self.num_nodes

    def links_per_node(self) -> float:
        """Cost metric ``Nl / N`` (the paper's headline "2 links")."""
        return self.num_links / self.num_nodes

    def ports_per_node(self) -> float:
        """Cost metric ``Np / N`` (the paper's headline "3 ports")."""
        return self.num_ports / self.num_nodes

    # -- graph access --------------------------------------------------------

    def neighbors(self, router: int) -> List[int]:
        """Sorted list of routers adjacent to *router*."""
        return self._adj[router]

    def degree(self, router: int) -> int:
        """Network degree (number of router-to-router links) of *router*."""
        return len(self._adj[router])

    def radix(self, router: int) -> int:
        """Full radix: network links plus attached end-nodes."""
        return len(self._adj[router]) + self._nodes_per_router[router]

    def max_radix(self) -> int:
        """Largest router radix in the topology (the ``r`` of Fig. 3)."""
        return max(self.radix(r) for r in range(self.num_routers))

    def is_edge(self, a: int, b: int) -> bool:
        """``True`` iff routers *a* and *b* are directly connected."""
        return b in self._neighbor_sets[a]

    def port(self, a: int, b: int) -> int:
        """Output-port index used by router *a* to reach neighbor *b*."""
        return self._port_of[a][b]

    def common_neighbors(self, a: int, b: int) -> List[int]:
        """Routers adjacent to both *a* and *b* (sorted)."""
        small, large = (
            (self._neighbor_sets[a], self._neighbor_sets[b])
            if len(self._adj[a]) <= len(self._adj[b])
            else (self._neighbor_sets[b], self._neighbor_sets[a])
        )
        return sorted(x for x in small if x in large)

    def edges(self) -> Iterable[Tuple[int, int]]:
        """Iterate over undirected router-router edges ``(a, b)`` with a < b."""
        for a, neigh in enumerate(self._adj):
            for b in neigh:
                if a < b:
                    yield (a, b)

    def directed_channels(self) -> Iterable[Tuple[int, int]]:
        """Iterate over all directed router-router channels ``(u, v)``."""
        for a, neigh in enumerate(self._adj):
            for b in neigh:
                yield (a, b)

    # -- end-nodes ----------------------------------------------------------

    def nodes_of(self, router: int) -> List[int]:
        """End-node ids attached to *router*."""
        return self._router_nodes[router]

    def router_of(self, node: int) -> int:
        """Router an end-node is attached to."""
        return self.node_router[node]

    def nodes_attached(self, router: int) -> int:
        """Number of end-nodes attached to *router*."""
        return self._nodes_per_router[router]

    def endpoint_routers(self) -> List[int]:
        """Routers with at least one attached end-node, in id order."""
        return [r for r, c in enumerate(self._nodes_per_router) if c > 0]

    # -- routing/deadlock hooks (overridden by structured topologies) --------

    def link_class(self, u: int, v: int) -> int:
        """Deadlock class of the directed channel ``u -> v``.

        Flat (default).  SSPT subclasses override this to expose their
        up/down structure (paper Sec. 3.4).
        """
        return LINK_FLAT

    def valiant_intermediates(self) -> List[int]:
        """Eligible Valiant intermediate routers (paper Sec. 3.2).

        Default: routers with end-nodes.  The Slim Fly overrides this to
        allow *any* router.
        """
        return self.endpoint_routers()

    # -- interop -----------------------------------------------------------

    def to_networkx(self):
        """Router graph as a :class:`networkx.Graph` (lazy import)."""
        import networkx as nx

        g = nx.Graph()
        g.add_nodes_from(range(self.num_routers))
        g.add_edges_from(self.edges())
        return g

    def adjacency_matrix(self) -> "np.ndarray":
        """Dense boolean adjacency matrix of the router graph (a numpy
        array; numpy is imported here, not with the module)."""
        import numpy as np

        mat = np.zeros((self.num_routers, self.num_routers), dtype=bool)
        for a, b in self.edges():
            mat[a, b] = mat[b, a] = True
        return mat

    # -- diagnostics --------------------------------------------------------

    def diameter(self) -> int:
        """Exact router-graph diameter via BFS from every router."""
        worst = 0
        for source in range(self.num_routers):
            worst = max(worst, max(self._bfs_distances(source)))
        return worst

    def endpoint_diameter(self) -> int:
        """Largest distance between two routers that carry end-nodes.

        This is the paper's "diameter": for the indirect topologies the
        hub routers (GRs / L1) sit *between* endpoint routers, so the
        plain router-graph diameter exceeds 2 even though every
        node-to-node minimal route crosses at most 2 router-router
        links.
        """
        ep = self.endpoint_routers()
        ep_set = set(ep)
        worst = 0
        for source in ep:
            dist = self._bfs_distances(source)
            worst = max(worst, max(dist[r] for r in ep_set))
        return worst

    def _bfs_distances(self, source: int) -> List[int]:
        dist = [-1] * self.num_routers
        dist[source] = 0
        frontier = [source]
        d = 0
        while frontier:
            d += 1
            nxt: List[int] = []
            for u in frontier:
                for v in self._adj[u]:
                    if dist[v] < 0:
                        dist[v] = d
                        nxt.append(v)
            frontier = nxt
        if any(x < 0 for x in dist):
            raise ValueError(f"{self.name}: router graph is disconnected")
        return dist

    def _validate_adjacency(self) -> None:
        for a, neigh in enumerate(self._adj):
            for b in neigh:
                if b == a:
                    raise ValueError(f"{self.name}: self-loop at router {a}")
                if not (0 <= b < len(self._adj)):
                    raise ValueError(f"{self.name}: router {a} links to unknown router {b}")
                if a not in self._adj[b]:
                    raise ValueError(f"{self.name}: asymmetric edge {a} -> {b}")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<{type(self).__name__} {self.name}: R={self.num_routers} "
            f"N={self.num_nodes} r={self.max_radix()}>"
        )
