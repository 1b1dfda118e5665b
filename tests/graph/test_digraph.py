"""Unit tests for the core Graph type."""

import numpy as np
import pytest

from repro.graph.digraph import Graph


class TestConstruction:
    def test_empty_graph(self):
        g = Graph(0, [])
        assert g.num_vertices == 0
        assert g.num_edges == 0

    def test_basic_directed(self):
        g = Graph(3, [(0, 1), (1, 2)])
        assert g.num_vertices == 3
        assert g.num_edges == 2
        assert g.directed

    def test_duplicate_edges_removed(self):
        g = Graph(3, [(0, 1), (0, 1), (1, 2)])
        assert g.num_edges == 2

    def test_undirected_canonicalizes(self):
        g = Graph(3, [(1, 0), (0, 1)], directed=False)
        assert g.num_edges == 1
        assert g.has_edge(0, 1)
        assert g.has_edge(1, 0)

    def test_directed_antiparallel_kept(self):
        g = Graph(2, [(0, 1), (1, 0)])
        assert g.num_edges == 2

    def test_out_of_range_endpoint_rejected(self):
        with pytest.raises(ValueError, match="endpoint 5 out of range"):
            Graph(2, [(0, 5)])

    def test_negative_endpoint_rejected(self):
        # (0, -1) has a non-negative source, so a src-only check would
        # let it through to die inside np.bincount.
        with pytest.raises(ValueError, match="endpoint -1 out of range"):
            Graph(2, [(0, -1)])
        with pytest.raises(ValueError, match="out of range"):
            Graph(2, [(-3, 1)])

    def test_negative_vertex_count_rejected(self):
        with pytest.raises(ValueError):
            Graph(-1, [])

    def test_self_loop_allowed(self):
        g = Graph(2, [(0, 0)])
        assert g.has_edge(0, 0)
        assert g.in_degree(0) == 1
        assert g.out_degree(0) == 1


class TestAdjacency:
    @pytest.fixture()
    def diamond(self):
        return Graph(4, [(0, 1), (0, 2), (1, 3), (2, 3)])

    def test_out_neighbors(self, diamond):
        assert set(diamond.out_neighbors(0).tolist()) == {1, 2}
        assert diamond.out_neighbors(3).tolist() == []

    def test_in_neighbors(self, diamond):
        assert set(diamond.in_neighbors(3).tolist()) == {1, 2}
        assert diamond.in_neighbors(0).tolist() == []

    def test_degrees(self, diamond):
        assert diamond.out_degree(0) == 2
        assert diamond.in_degree(3) == 2
        assert diamond.degree(1) == 2  # one in + one out

    def test_degree_vectors(self, diamond):
        assert diamond.out_degrees().tolist() == [2, 1, 1, 0]
        assert diamond.in_degrees().tolist() == [0, 1, 1, 2]

    def test_neighbors_union(self, diamond):
        assert set(diamond.neighbors(1).tolist()) == {0, 3}

    def test_undirected_in_equals_out(self):
        g = Graph(3, [(0, 1), (1, 2)], directed=False)
        assert g.in_degree(1) == g.out_degree(1) == 2


class TestIncidentEdges:
    def test_incident_edges_directed(self):
        g = Graph(3, [(0, 1), (1, 2), (2, 1)])
        incident = set(g.incident_edges(1))
        assert incident == {(0, 1), (1, 2), (2, 1)}
        assert g.incident_edge_count(1) == 3

    def test_incident_count_self_loop_not_double_counted(self):
        g = Graph(2, [(0, 0), (0, 1)])
        assert g.incident_edge_count(0) == 2

    def test_undirected_self_loop_is_one_incident_edge(self):
        g = Graph(3, [(0, 0), (0, 1)], directed=False)
        assert g.incident_edge_count(0) == 2 == len(list(g.incident_edges(0)))
        # The loop still counts twice in the degree (the usual convention)
        # and closes both halves of the adjacency row ...
        assert g.degree(0) == g.out_degree(0) == g.in_degree(0) == 3
        assert g.out_neighbors(0).tolist() == [0, 1, 0]
        # ... but ``neighbors`` is documented as deduplicated, row order kept.
        assert g.neighbors(0).tolist() == [0, 1]
        assert g.neighbors(1).tolist() == [0]
        g.remove_edge(0, 0)
        assert g.incident_edge_count(0) == 1 and g.neighbors(0).tolist() == [1]

    def test_incident_edges_undirected_canonical(self):
        g = Graph(3, [(2, 1)], directed=False)
        assert set(g.incident_edges(2)) == {(1, 2)}

    def test_canonical_edge(self):
        d = Graph(3, [(2, 1)])
        u = Graph(3, [(2, 1)], directed=False)
        assert d.canonical_edge(2, 1) == (2, 1)
        assert u.canonical_edge(2, 1) == (1, 2)


class TestDerived:
    def test_as_undirected(self):
        g = Graph(3, [(0, 1), (1, 0), (1, 2)])
        u = g.as_undirected()
        assert not u.directed
        assert u.num_edges == 2

    def test_subgraph_relabels(self):
        g = Graph(5, [(0, 1), (1, 2), (3, 4)])
        sub = g.subgraph([1, 2])
        assert sub.num_vertices == 2
        assert sub.has_edge(0, 1)
        assert sub.num_edges == 1

    def test_equality_and_hash(self):
        a = Graph(3, [(0, 1)])
        b = Graph(3, [(0, 1)])
        c = Graph(3, [(1, 0)])
        assert a == b
        assert hash(a) == hash(b)
        assert a != c

    def test_edge_array_shape(self):
        g = Graph(3, [(0, 1), (1, 2)])
        arr = g.edge_array()
        assert arr.shape == (2, 2)
        assert arr.dtype == np.int64


class TestMutationHooks:
    def test_add_vertex_returns_new_id(self):
        g = Graph(3, [(0, 1)])
        v = g.add_vertex()
        assert v == 3
        assert g.num_vertices == 4
        assert g.incident_edge_count(v) == 0

    def test_add_edge_reports_novelty(self):
        g = Graph(3, [(0, 1)])
        assert g.add_edge(1, 2) is True
        assert g.add_edge(1, 2) is False
        assert g.has_edge(1, 2)
        assert g.num_edges == 2

    def test_undirected_add_edge_canonical_noop(self):
        g = Graph(3, [(0, 1)], directed=False)
        assert g.add_edge(1, 0) is False
        assert g.num_edges == 1

    def test_remove_edge_reports_presence(self):
        g = Graph(3, [(0, 1), (1, 2)])
        assert g.remove_edge(0, 1) is True
        assert g.remove_edge(0, 1) is False
        assert not g.has_edge(0, 1)
        assert g.num_edges == 1

    def test_out_of_range_endpoints_raise(self):
        g = Graph(3, [(0, 1)])
        with pytest.raises(ValueError):
            g.add_edge(0, 3)
        with pytest.raises(ValueError):
            g.add_edge(-1, 1)
        with pytest.raises(ValueError):
            g.remove_edge(0, 5)

    def test_version_bumps_on_structural_change_only(self):
        g = Graph(3, [(0, 1)])
        v0 = g.version
        g.add_edge(1, 2)
        v1 = g.version
        assert v1 > v0
        # Canonical no-ops leave the version untouched.
        g.add_edge(1, 2)
        g.remove_edge(0, 2)
        assert g.version == v1
        g.remove_edge(1, 2)
        assert g.version > v1
        g.add_vertex()
        assert g.version > v1 + 1 or g.version != v1

    def test_arrays_refresh_after_mutation(self):
        g = Graph(3, [(0, 1)])
        before = g.edge_array().copy()
        assert g.out_degree(1) == 0
        g.add_edge(1, 2)
        g.add_vertex()
        arr = g.edge_array()
        assert arr.shape == (2, 2)
        assert set(map(tuple, arr.tolist())) == {(0, 1), (1, 2)}
        assert g.out_degree(1) == 1
        assert g.in_degree(2) == 1
        assert list(g.neighbors(1)) == [0, 2]
        assert g.out_degrees().shape == (4,)
        assert before.shape == (1, 2)

    def test_mutated_graph_equals_fresh_construction(self):
        g = Graph(3, [(0, 1), (1, 2)])
        g.remove_edge(1, 2)
        g.add_vertex()
        g.add_edge(2, 3)
        assert g == Graph(4, [(0, 1), (2, 3)])
