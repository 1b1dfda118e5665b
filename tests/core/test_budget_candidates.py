"""Tests for budget estimation, fragment classification and GetCandidates."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.budget import classify_fragments, compute_budget
from repro.core.candidates import bfs_order, get_candidates
from repro.core.tracker import CostTracker
from repro.costmodel.library import builtin_cost_model
from repro.costmodel.model import constant_cost_model
from repro.graph.digraph import Graph
from repro.partition.hybrid import HybridPartition, NodeRole

from tests.conftest import make_edge_cut, make_vertex_cut
from tests.core.test_star_moves import build, scenarios


@pytest.fixture()
def skewed():
    # 6 vertices all homed in F0; F1 empty -> F0 overloaded.
    g = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)])
    p = HybridPartition.from_vertex_assignment(g, [0] * 6, 2)
    return g, p


class TestBudget:
    def test_budget_is_average(self, skewed):
        _g, p = skewed
        tracker = CostTracker(p, constant_cost_model())
        assert compute_budget(tracker) == pytest.approx(3.0)
        tracker.detach()

    def test_slack_scales_budget(self, skewed):
        _g, p = skewed
        tracker = CostTracker(p, constant_cost_model())
        assert compute_budget(tracker, slack=1.5) == pytest.approx(4.5)
        tracker.detach()

    def test_classification(self, skewed):
        _g, p = skewed
        tracker = CostTracker(p, constant_cost_model())
        over, under = classify_fragments(tracker, compute_budget(tracker))
        assert over == [0]
        assert under == [1]
        tracker.detach()

    def test_balanced_partition_all_underloaded(self, power_graph):
        p = make_edge_cut(power_graph, 4, seed=1)
        tracker = CostTracker(p, constant_cost_model())
        over, _under = classify_fragments(
            tracker, compute_budget(tracker, slack=1.2)
        )
        assert len(over) <= 1
        tracker.detach()


class TestBfsOrder:
    def test_covers_all_fragment_vertices(self, power_graph):
        p = make_edge_cut(power_graph, 3, seed=1)
        order = bfs_order(p, 0)
        assert set(order) == set(p.fragments[0].vertices())

    def test_connected_prefix(self, skewed):
        _g, p = skewed
        order = bfs_order(p, 0)
        # A path graph BFS from any seed yields contiguous vertices.
        assert len(order) == 6


class TestGetCandidates:
    def test_kept_prefix_within_budget(self, skewed):
        _g, p = skewed
        tracker = CostTracker(p, constant_cost_model())
        cands = get_candidates(tracker, 0, budget=3.0, role=NodeRole.ECUT)
        # 6 unit-cost vertices, budget 3 -> 3 kept, 3 candidates.
        assert len(cands) == 3
        tracker.detach()

    def test_zero_budget_marks_everything(self, skewed):
        _g, p = skewed
        tracker = CostTracker(p, constant_cost_model())
        cands = get_candidates(tracker, 0, budget=0.0)
        assert len(cands) == 6
        tracker.detach()

    def test_candidates_carry_incident_edges(self, skewed):
        _g, p = skewed
        tracker = CostTracker(p, constant_cost_model())
        cands = get_candidates(tracker, 0, budget=0.0)
        for v, edges in cands:
            assert set(edges) == set(p.fragments[0].incident(v))
        tracker.detach()

    def test_role_filter_vcut(self, power_graph):
        p = make_vertex_cut(power_graph, 3, seed=2)
        tracker = CostTracker(p, builtin_cost_model("tc"))
        cands = get_candidates(tracker, 0, budget=0.0, role=NodeRole.VCUT)
        for v, _edges in cands:
            assert p.role(v, 0) is NodeRole.VCUT
        tracker.detach()

    def test_custom_order_respected(self, skewed):
        _g, p = skewed
        tracker = CostTracker(p, constant_cost_model())
        order = [5, 4, 3, 2, 1, 0]
        cands = get_candidates(tracker, 0, budget=2.0, order=order)
        kept = {5, 4}
        assert all(v not in kept for v, _ in cands)
        tracker.detach()


# ----------------------------------------------------------------------
# The dirty-scope filter lives inside GetCandidates (DESIGN §15)
# ----------------------------------------------------------------------
def per_call_candidates(tracker, fid, budget, role, order):
    """GetCandidates asking the public API per vertex, as it did before the
    loop read the fragment's buckets and the flushed contributions itself."""
    partition = tracker.partition
    kept, found = 0.0, []
    for v in order:
        if partition.role(v, fid) is not role:
            continue
        contribution = tracker.copy_comp_cost(v, fid)
        if kept + contribution <= budget:
            kept += contribution
        else:
            found.append((v, tuple(sorted(partition.fragments[fid].incident(v)))))
    return found


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(scenarios(), st.floats(min_value=0.0, max_value=1.0), st.randoms(use_true_random=False))
def test_only_equals_filtering_afterwards(scenario, share, rng):
    graph, fragments, family, model_name, seed, _ops = scenario
    model = builtin_cost_model(model_name)
    partition = build(graph, fragments, family, model, seed)
    tracker = CostTracker(partition, model)
    try:
        frontier = {v for v in graph.vertices if rng.random() < 0.4}
        for fid in range(partition.num_fragments):
            budget = share * tracker.comp_cost(fid)
            arbitrary = sorted(partition.fragments[fid].vertices())
            for role in (NodeRole.ECUT, NodeRole.VCUT):
                for order in (None, arbitrary):
                    everything = get_candidates(tracker, fid, budget, role, order=order)
                    assert everything == per_call_candidates(
                        tracker, fid, budget, role,
                        bfs_order(partition, fid) if order is None else order,
                    )
                    scoped = get_candidates(
                        tracker, fid, budget, role, order=order, only=frontier
                    )
                    assert scoped == [u for u in everything if u[0] in frontier]
    finally:
        tracker.detach()


def test_a_vertex_outside_the_fragment_is_a_key_error(skewed):
    _g, p = skewed
    tracker = CostTracker(p, constant_cost_model())
    with pytest.raises(KeyError):
        get_candidates(tracker, 1, budget=0.0, order=[0])
    tracker.detach()
