"""Tests for instrumentation profiles: the cost shapes the models learn."""

import numpy as np
import pytest

from repro.algorithms.base import global_or
from repro.algorithms.registry import get_algorithm
from repro.graph.digraph import Graph
from repro.graph.generators import chung_lu_power_law, star_graph
from repro.partition.hybrid import HybridPartition
from repro.runtime.bsp import Cluster
from repro.runtime.plan import DUMMY, plan_for

from tests.conftest import make_edge_cut, make_vertex_cut
from tests.oracles import plan_tables


@pytest.fixture(scope="module")
def graph():
    return chung_lu_power_law(200, 6.0, seed=41)


def _owners(partition, target_aware=False):
    """``{edge: owning fid}`` read off ``FragmentPlan.owned_edges``."""
    plan = plan_for(partition)
    owners = {}
    for fragment in partition.fragments:
        src, dst = plan.owned_edges(fragment.fid, target_aware)
        for edge in zip(src.tolist(), dst.tolist()):
            assert edge not in owners, f"{edge} owned twice"
            owners[edge] = fragment.fid
    assert owners == plan_tables.compute_edge_owners(partition, target_aware)
    return owners


def _bearing_copies(partition):
    """``(fid, v)`` per non-dummy slot of ``FragmentPlan.roles``."""
    plan = plan_for(partition)
    copies = []
    for fragment in partition.fragments:
        roles = plan.roles(fragment.fid)
        assert np.array_equal(roles, plan_tables.roles(partition, fragment.fid))
        bearing = plan.verts(fragment.fid)[roles != DUMMY]
        copies += [(fragment.fid, v) for v in bearing.tolist()]
    assert copies == [
        (f.fid, v)
        for f in partition.fragments
        for v in f.vertices()
        if partition.cost_bearing(v, f.fid)
    ]
    return copies


class TestEdgeOwners:
    def test_every_edge_owned_once(self, graph):
        p = make_edge_cut(graph, 3)
        owners = _owners(p)
        assert set(owners) == set(graph.edges())
        for edge, fid in owners.items():
            assert p.fragments[fid].has_edge(edge)

    def test_target_aware_prefers_home(self, graph):
        p = make_edge_cut(graph, 3)
        owners = _owners(p, target_aware=True)
        for edge, fid in list(owners.items())[:200]:
            home = p.designated_home(edge[1])
            if home is not None and p.fragments[home].has_edge(edge):
                assert fid == home

    def test_vertex_cut_ownership_unique(self, graph):
        p = make_vertex_cut(graph, 3)
        owners = _owners(p)
        assert len(owners) == graph.num_edges


class TestBearingCopies:
    def test_edge_cut_one_bearing_copy_per_vertex(self, graph):
        p = make_edge_cut(graph, 3)
        copies = _bearing_copies(p)
        assert len(copies) == graph.num_vertices

    def test_vertex_cut_bearing_at_least_one(self, graph):
        p = make_vertex_cut(graph, 3)
        seen = {v for _fid, v in _bearing_copies(p)}
        assert seen == set(graph.vertices)


class TestGlobalOr:
    def test_true_when_any(self, graph):
        p = make_edge_cut(graph, 3)
        cluster = Cluster(p)
        assert global_or(cluster, {0: False, 1: True, 2: False})

    def test_false_when_none(self, graph):
        p = make_edge_cut(graph, 3)
        cluster = Cluster(p)
        assert not global_or(cluster, {0: False, 1: False, 2: False})


class TestCostShapes:
    def test_pr_ops_proportional_to_edges(self, graph):
        p = make_edge_cut(graph, 3)
        r3 = get_algorithm("pr").run(p, iterations=3)
        r6 = get_algorithm("pr").run(p, iterations=6)
        assert r6.profile.total_ops == pytest.approx(2 * r3.profile.total_ops, rel=0.01)

    def test_pr_per_copy_ops_track_in_degree(self, graph):
        p = make_edge_cut(graph, 3)
        result = get_algorithm("pr").run(p, iterations=1)
        for (fid, v), ops in list(result.profile.comp_ops_by_copy.items())[:100]:
            assert ops <= graph.in_degree(v) + 1e-9

    def test_hub_master_bears_cn_merge_cost(self):
        # Hub 0 split across fragments: the master copy does the pair merge.
        g = star_graph(8)
        assignment = {e: i % 2 for i, e in enumerate(g.edges())}
        p = HybridPartition.from_edge_assignment(g, assignment, 2)
        result = get_algorithm("cn").run(p)
        master = p.master(0)
        ops_at_master = result.profile.comp_ops_by_copy.get((master, 0), 0)
        assert ops_at_master >= 8 * 7 / 2  # all pairs counted at the master

    def test_sssp_charges_only_active_relaxations(self, graph):
        p = make_edge_cut(graph, 3)
        result = get_algorithm("sssp").run(p, source=0)
        assert result.profile.total_ops <= 3 * graph.num_edges + graph.num_vertices

    def test_makespan_positive_and_supersteps_counted(self, graph):
        p = make_vertex_cut(graph, 3)
        result = get_algorithm("wcc").run(p)
        assert result.makespan > 0
        assert result.profile.num_supersteps >= 3
