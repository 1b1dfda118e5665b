"""Unit tests for HybridPartition: construction, placement, mutations."""

import pytest

from repro.graph.digraph import Graph
from repro.partition.hybrid import HybridPartition, NodeRole
from repro.partition.validation import check_partition, is_edge_cut, is_vertex_cut

from tests.conftest import make_edge_cut, make_vertex_cut


@pytest.fixture()
def tiny():
    # 0 -> 1 -> 2, 0 -> 2
    return Graph(3, [(0, 1), (1, 2), (0, 2)])


class TestConstructors:
    def test_from_vertex_assignment_is_edge_cut(self, tiny):
        p = HybridPartition.from_vertex_assignment(tiny, [0, 0, 1], 2)
        check_partition(p)
        assert is_edge_cut(p)
        # Vertex 2's fragment holds all its incident edges.
        assert p.fragments[1].incident_count(2) == 2

    def test_from_vertex_assignment_replicates_border(self, tiny):
        p = HybridPartition.from_vertex_assignment(tiny, [0, 0, 1], 2)
        # 2 appears in F0 (dummy, via edges 1->2 and 0->2) and F1 (home).
        assert p.placement(2) == frozenset({0, 1})
        assert p.mirrors(2) == 1

    def test_from_edge_assignment_is_vertex_cut(self, tiny):
        p = HybridPartition.from_edge_assignment(
            tiny, {(0, 1): 0, (1, 2): 1, (0, 2): 1}, 2
        )
        check_partition(p)
        assert is_vertex_cut(p)

    def test_isolated_vertices_get_homes(self):
        g = Graph(4, [(0, 1)])
        p = HybridPartition.from_edge_assignment(g, {(0, 1): 0}, 2)
        check_partition(p)
        assert p.placement(3)

    def test_bad_assignment_rejected(self, tiny):
        with pytest.raises(ValueError):
            HybridPartition.from_vertex_assignment(tiny, [0, 0, 5], 2)
        with pytest.raises(ValueError):
            HybridPartition.from_edge_assignment(tiny, {(0, 1): 9}, 2)

    def test_zero_fragments_rejected(self, tiny):
        with pytest.raises(ValueError):
            HybridPartition(tiny, 0)


class TestRoles:
    def test_ecut_vertex_single_home(self, tiny):
        p = HybridPartition.from_vertex_assignment(tiny, [0, 0, 1], 2)
        assert p.is_ecut_vertex(0)
        assert p.role(0, 0) is NodeRole.ECUT

    def test_dummy_copy_of_ecut_vertex(self, tiny):
        p = HybridPartition.from_vertex_assignment(tiny, [0, 0, 1], 2)
        # Vertex 2's home is F1; the copy in F0 is a dummy.
        assert p.role(2, 1) is NodeRole.ECUT
        assert p.role(2, 0) is NodeRole.DUMMY

    def test_vcut_roles(self, tiny):
        p = HybridPartition.from_edge_assignment(
            tiny, {(0, 1): 0, (0, 2): 1, (1, 2): 0}, 2
        )
        # Vertex 0 has edges split between F0 and F1.
        assert p.is_vcut_vertex(0)
        assert p.role(0, 0) is NodeRole.VCUT
        assert p.role(0, 1) is NodeRole.VCUT

    def test_isolated_vertex_is_ecut(self):
        g = Graph(2, [])
        p = HybridPartition(g, 2)
        p.add_vertex_to(0, 0)
        p.add_vertex_to(1, 1)
        assert p.is_ecut_vertex(0)
        assert p.role(0, 0) is NodeRole.ECUT

    def test_undirected_self_loop_vertex_is_ecut_and_full_at_home(self):
        # |E_0| is 2 (the loop once): fragment 0 holds both, so it is full.
        g = Graph(3, [(0, 0), (0, 1)], directed=False)
        p = HybridPartition.from_vertex_assignment(g, [0, 0, 1], 2)
        check_partition(p)
        assert p.global_incident_count(0) == 2
        assert p.full_fragments(0) == frozenset({0})
        assert p.designated_home(0) == 0 and p.is_ecut_vertex(0)
        assert p.role(0, 0) is NodeRole.ECUT
        assert is_edge_cut(p)

    def test_role_of_absent_copy_raises(self, tiny):
        p = HybridPartition.from_vertex_assignment(tiny, [0, 0, 0], 2)
        with pytest.raises(KeyError):
            p.role(0, 1)

    def test_designated_home_prefers_master(self, tiny):
        p = HybridPartition(tiny, 2)
        for fid in (0, 1):
            for e in tiny.edges():
                p.add_edge_to(fid, e)  # fully replicated: both full
        assert p.full_fragments(0) == frozenset({0, 1})
        p.set_master(0, 1)
        assert p.designated_home(0) == 1
        assert p.role(0, 0) is NodeRole.DUMMY


class TestMutations:
    def test_add_edge_maintains_placement(self, tiny):
        p = HybridPartition(tiny, 2)
        p.add_edge_to(0, (0, 1))
        assert p.placement(0) == frozenset({0})
        assert p.fragments[0].has_edge((0, 1))

    def test_add_nonexistent_edge_rejected(self, tiny):
        p = HybridPartition(tiny, 2)
        with pytest.raises(ValueError):
            p.add_edge_to(0, (2, 0))

    def test_remove_edge_prunes_replicated_endpoint(self, tiny):
        p = HybridPartition(tiny, 2)
        p.add_edge_to(0, (0, 1))
        p.add_edge_to(1, (0, 1))
        p.remove_edge_from(1, (0, 1))
        # Copies at F1 had no other edges and exist at F0 too -> pruned.
        assert p.placement(0) == frozenset({0})
        assert p.placement(1) == frozenset({0})

    def test_remove_edge_keeps_last_copy(self, tiny):
        p = HybridPartition(tiny, 2)
        p.add_edge_to(0, (0, 1))
        p.remove_edge_from(0, (0, 1))
        # Sole copies of 0 and 1 survive as edge-free vertices.
        assert p.placement(0) == frozenset({0})

    def test_master_reassigned_on_removal(self, tiny):
        p = HybridPartition(tiny, 2)
        p.add_edge_to(0, (0, 1))
        p.add_edge_to(1, (0, 1))
        p.set_master(0, 1)
        p.remove_edge_from(1, (0, 1))
        assert p.master(0) == 0

    def test_set_master_requires_host(self, tiny):
        p = HybridPartition(tiny, 2)
        p.add_edge_to(0, (0, 1))
        with pytest.raises(ValueError):
            p.set_master(0, 1)

    def test_fullness_tracking(self, tiny):
        p = HybridPartition(tiny, 2)
        p.add_edge_to(0, (0, 1))
        assert p.full_fragments(0) == frozenset()
        p.add_edge_to(0, (0, 2))
        assert p.full_fragments(0) == frozenset({0})
        p.remove_edge_from(0, (0, 2))
        assert p.full_fragments(0) == frozenset()

    def test_listener_fires_on_mutation(self, tiny):
        p = HybridPartition(tiny, 2)
        touched = []
        p.add_listener(touched.append)
        p.add_edge_to(0, (0, 1))
        assert set(touched) == {0, 1}
        p.remove_listener(touched.append)
        p.add_edge_to(0, (1, 2))
        assert set(touched) == {0, 1}


class TestAggregates:
    def test_copy_is_deep(self, power_graph):
        p = make_edge_cut(power_graph, 4)
        clone = p.copy()
        before = clone.total_edge_copies()
        edge = next(iter(power_graph.edges()))
        host = next(iter(p.placement(edge[0])))
        p.remove_edge_from(host, edge)
        assert clone.total_edge_copies() == before
        check_partition(clone)

    def test_copy_preserves_masters(self, power_graph):
        p = make_vertex_cut(power_graph, 4)
        for v, hosts in list(p.vertex_fragments())[:10]:
            if len(hosts) > 1:
                p.set_master(v, max(hosts))
        clone = p.copy()
        for v, _hosts in p.vertex_fragments():
            assert clone.master(v) == p.master(v)

    def test_totals(self, tiny):
        p = HybridPartition.from_vertex_assignment(tiny, [0, 1, 1], 2)
        assert p.total_vertex_copies() >= tiny.num_vertices
        assert p.total_edge_copies() >= tiny.num_edges
