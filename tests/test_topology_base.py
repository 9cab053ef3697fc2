"""Unit tests for repro.topology.base (the shared Topology model)."""

from array import array

import numpy as np
import pytest

from repro.topology.base import LINK_FLAT, Topology


def triangle(p=2):
    """Three fully-connected routers with p nodes each."""
    return Topology("tri", [[1, 2], [0, 2], [0, 1]], [p, p, p])


def path4():
    """A 4-router path with nodes only at the ends."""
    return Topology("path", [[1], [0, 2], [1, 3], [2]], [2, 0, 0, 2])


class TestConstruction:
    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            Topology("bad", [[1], [0]], [1])

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            Topology("bad", [[0]], [1])

    def test_rejects_asymmetric_edge(self):
        with pytest.raises(ValueError):
            Topology("bad", [[1], []], [1, 1])

    def test_rejects_unknown_router(self):
        with pytest.raises(ValueError):
            Topology("bad", [[5]], [1])

    def test_rejects_negative_nodes(self):
        with pytest.raises(ValueError):
            Topology("bad", [[1], [0]], [1, -1])

    def test_duplicate_neighbors_collapsed(self):
        t = Topology("dup", [[1, 1], [0, 0]], [1, 1])
        assert t.neighbors(0) == [1]
        assert t.num_router_links == 1


class TestCounts:
    def test_triangle_counts(self):
        t = triangle(p=2)
        assert t.num_routers == 3
        assert t.num_nodes == 6
        assert t.num_router_links == 3
        assert t.num_links == 9  # 3 router links + 6 node links
        assert t.num_ports == 12  # 6 network ports + 6 node ports

    def test_cost_metrics(self):
        t = triangle(p=2)
        assert t.links_per_node() == pytest.approx(1.5)
        assert t.ports_per_node() == pytest.approx(2.0)

    def test_radix(self):
        t = triangle(p=2)
        assert all(t.radix(r) == 4 for r in range(3))
        assert t.max_radix() == 4

    def test_path_radix_nonuniform(self):
        t = path4()
        assert t.radix(0) == 3 and t.radix(1) == 2


class TestNodeAssignment:
    def test_contiguous_ids(self):
        t = triangle(p=2)
        assert t.nodes_of(0) == [0, 1]
        assert t.nodes_of(1) == [2, 3]
        assert t.nodes_of(2) == [4, 5]

    def test_router_of_inverse(self):
        t = triangle(p=3)
        for r in range(3):
            for n in t.nodes_of(r):
                assert t.router_of(n) == r

    def test_node_router_array(self):
        t = triangle(p=2)
        assert t.node_router == array("q", [0, 0, 1, 1, 2, 2])

    def test_endpoint_routers_skips_empty(self):
        t = path4()
        assert t.endpoint_routers() == [0, 3]

    def test_nodes_attached(self):
        t = path4()
        assert t.nodes_attached(1) == 0
        assert t.nodes_attached(0) == 2


class TestGraphAccess:
    def test_neighbors_sorted(self):
        t = Topology("t", [[2, 1], [0], [0]], [1, 1, 1])
        assert t.neighbors(0) == [1, 2]

    def test_is_edge(self):
        t = path4()
        assert t.is_edge(0, 1) and t.is_edge(1, 0)
        assert not t.is_edge(0, 2)

    def test_port_consistent_with_neighbors(self):
        t = triangle()
        for a in range(3):
            for i, b in enumerate(t.neighbors(a)):
                assert t.port(a, b) == i

    def test_common_neighbors(self):
        t = triangle()
        assert t.common_neighbors(0, 1) == [2]

    def test_common_neighbors_empty(self):
        t = path4()
        assert t.common_neighbors(0, 1) == []

    def test_edges_undirected_once(self):
        t = triangle()
        assert sorted(t.edges()) == [(0, 1), (0, 2), (1, 2)]

    def test_directed_channels_both_ways(self):
        t = path4()
        chans = set(t.directed_channels())
        assert (0, 1) in chans and (1, 0) in chans
        assert len(chans) == 2 * t.num_router_links


class TestDiameter:
    def test_triangle(self):
        assert triangle().diameter() == 1

    def test_path(self):
        assert path4().diameter() == 3

    def test_endpoint_diameter_smaller(self):
        # Endpoint routers are 0 and 3: endpoint diameter equals full
        # diameter here.
        assert path4().endpoint_diameter() == 3

    def test_disconnected_raises(self):
        t = Topology("disc", [[1], [0], [3], [2]], [1, 1, 1, 1])
        with pytest.raises(ValueError):
            t.diameter()


class TestHooksAndInterop:
    def test_default_link_class_flat(self):
        t = triangle()
        assert t.link_class(0, 1) == LINK_FLAT

    def test_default_valiant_intermediates(self):
        assert path4().valiant_intermediates() == [0, 3]

    def test_to_networkx(self):
        g = triangle().to_networkx()
        assert g.number_of_nodes() == 3
        assert g.number_of_edges() == 3

    def test_adjacency_matrix(self):
        m = path4().adjacency_matrix()
        assert m.shape == (4, 4)
        assert m[0, 1] and m[1, 0] and not m[0, 2]
        assert np.array_equal(m, m.T)
        assert not m.diagonal().any()
