"""Tests for MAssign (Eq. 5), scored by a session's cost tracker."""

from contextlib import contextmanager

from repro.core.driver import RefineSession
from repro.core.massign import massign
from repro.costmodel.library import builtin_cost_model
from repro.costmodel.model import CostModel
from repro.costmodel.polynomial import Monomial, PolynomialCostFunction
from repro.graph.digraph import Graph
from repro.partition.hybrid import HybridPartition

from tests.conftest import make_vertex_cut


@contextmanager
def scored(partition, model):
    """The tracker of an unguarded session over ``partition``."""
    with RefineSession(partition, model, None, None) as session:
        yield session.tracker


def test_masters_stay_on_hosting_fragments(power_graph):
    p = make_vertex_cut(power_graph, 4, seed=6)
    with scored(p, builtin_cost_model("pr")) as tracker:
        massign(tracker)
    for v, hosts in p.vertex_fragments():
        assert p.master(v) in hosts


def test_does_not_increase_comm_imbalance(power_graph):
    model = builtin_cost_model("pr")
    p = make_vertex_cut(power_graph, 4, seed=6)
    # Adversarial start: pile all masters onto fragment 0 where possible.
    for v, hosts in list(p.vertex_fragments()):
        if 0 in hosts:
            p.set_master(v, 0)
    with scored(p, model) as tracker:
        before = max(tracker.comm_cost(f) for f in range(4))
        moves = massign(tracker)
        after = max(tracker.comm_cost(f) for f in range(4))
    assert moves > 0
    assert after <= before


def test_single_host_vertices_untouched():
    g = Graph(3, [(0, 1), (1, 2)])
    p = HybridPartition.from_edge_assignment(g, {(0, 1): 0, (1, 2): 0}, 2)
    with scored(p, builtin_cost_model("pr")) as tracker:
        assert massign(tracker) == 0


def test_restricted_vertex_list(power_graph):
    p = make_vertex_cut(power_graph, 4, seed=6)
    borders = [v for v, h in p.vertex_fragments() if len(h) > 1]
    subset = borders[:5]
    masters_before = {v: p.master(v) for v in borders}
    with scored(p, builtin_cost_model("pr")) as tracker:
        massign(tracker, vertices=subset)
    for v in borders[5:]:
        assert p.master(v) == masters_before[v]


def test_master_dependent_computation_spreads():
    """With h = M * d_G, Eq. 5 + delta accounting must spread masters."""
    # Two split vertices, both initially mastered at fragment 0.
    g = Graph(6, [(0, 1), (1, 2), (3, 4), (4, 5)])
    p = HybridPartition(g, 2)
    p.add_edge_to(0, (0, 1))
    p.add_edge_to(1, (1, 2))
    p.add_edge_to(0, (3, 4))
    p.add_edge_to(1, (4, 5))
    p.set_master(1, 0)
    p.set_master(4, 0)
    h = PolynomialCostFunction([Monomial(1.0, {"M": 1, "d_G": 1})], "h")
    gm = PolynomialCostFunction([Monomial(0.01, {"r": 1})], "g")
    model = CostModel("m", h, gm)
    with scored(p, model) as tracker:
        massign(tracker)
    # The two master-side loads should not share a fragment.
    assert p.master(1) != p.master(4)
