"""End-to-end tests for the E2H and V2H refiners (Section 5)."""

import pytest

from repro.core.e2h import E2H
from repro.core.tracker import CostTracker
from repro.core.v2h import V2H
from repro.costmodel.library import builtin_cost_model
from repro.graph.digraph import Graph
from repro.partition.hybrid import HybridPartition
from repro.partition.validation import check_partition

from tests.conftest import make_edge_cut, make_vertex_cut


def parallel_cost(partition, model):
    tracker = CostTracker(partition, model)
    cost = tracker.parallel_cost()
    tracker.detach()
    return cost


class TestE2H:
    @pytest.mark.parametrize("alg", ["cn", "pr", "wcc"])
    def test_reduces_parallel_cost(self, alg, power_graph):
        model = builtin_cost_model(alg)
        initial = make_edge_cut(power_graph, 4, seed=3)
        refined = E2H(model).refine(initial)
        check_partition(refined)
        assert parallel_cost(refined, model) < parallel_cost(initial, model)

    def test_input_not_mutated_by_default(self, power_graph):
        model = builtin_cost_model("cn")
        initial = make_edge_cut(power_graph, 4, seed=3)
        before = initial.total_edge_copies()
        E2H(model).refine(initial)
        assert initial.total_edge_copies() == before

    def test_in_place_mutates(self, power_graph):
        model = builtin_cost_model("cn")
        initial = make_edge_cut(power_graph, 4, seed=3)
        refined = E2H(model).refine(initial, in_place=True)
        assert refined is initial

    def test_stats_populated(self, power_graph):
        model = builtin_cost_model("cn")
        refiner = E2H(model)
        refiner.refine(make_edge_cut(power_graph, 4, seed=3))
        stats = refiner.last_stats
        assert stats.budget > 0
        assert stats.cost_after <= stats.cost_before
        assert stats.candidates >= stats.emigrated

    def test_phase_switches(self, power_graph):
        model = builtin_cost_model("cn")
        refiner = E2H(model, enable_esplit=False, enable_massign=False)
        refined = refiner.refine(make_edge_cut(power_graph, 4, seed=3))
        check_partition(refined)
        assert refiner.last_stats.split_edges == 0
        assert refiner.last_stats.master_moves == 0

    def test_balanced_input_unchanged_much(self, power_graph):
        model = builtin_cost_model("wcc")
        initial = make_edge_cut(power_graph, 4, seed=3)
        refiner = E2H(model, budget_slack=1.5)
        refined = refiner.refine(initial)
        check_partition(refined)

    def test_esplit_cuts_super_nodes(self, power_graph):
        # The hub (vertex 0) of a power-law graph exceeds any budget for
        # a quadratic cost model, so ESplit must cut it.
        model = builtin_cost_model("cn")
        initial = make_edge_cut(power_graph, 4, seed=3)
        refiner = E2H(model)
        refined = refiner.refine(initial)
        assert refiner.last_stats.split_edges > 0 or refined.is_vcut_vertex(0)

    @pytest.mark.xfail(
        strict=True,
        reason="MAssign moves a full master's C_h with it without pricing it: "
        "after ESplit GainCache.host_scores prices dh = 0.0 on every host "
        "(master_delta_key reads only the M feature), but designated_home "
        "follows a full master",
    )
    def test_massign_prices_the_home_that_follows_a_full_master(self):
        """The input the property test found: E2H must not raise its own cost.

        After ESplit, MAssign moves the masters of 3 and 5 to F0, where each
        has a full copy; ``designated_home`` then makes F0 carry both
        (2 × 41.1 µ of C_h), priced at Δh = 0.0, and F0 goes from 164.5 µ to
        246.8 µ.
        """
        graph = Graph(8, [(1, 3), (1, 5), (2, 4), (4, 6)], directed=False)
        initial = HybridPartition.from_vertex_assignment(
            graph, [1, 0, 2, 1, 1, 2, 0, 0], 3
        )
        model = builtin_cost_model("wcc")
        tracker = CostTracker(initial, model)
        before_max = max(tracker.comp_costs())
        budget = sum(tracker.comp_costs()) / initial.num_fragments
        max_price = max(tracker.price_as_ecut(v) for v in graph.vertices)
        tracker.detach()
        refiner = E2H(model)
        refined = refiner.refine(initial)
        check_partition(refined)
        tracker = CostTracker(refined, model)
        after_max = max(tracker.comp_costs())
        tracker.detach()
        # Today: cost 4.24e-4 -> 4.74e-4, max C_h 1.23e-4 -> 2.47e-4.
        assert refiner.last_stats.cost_after <= refiner.last_stats.cost_before
        assert after_max <= (max(before_max, budget) + 2.0 * max_price) * 1.05


class TestV2H:
    @pytest.mark.parametrize("alg", ["cn", "tc"])
    def test_reduces_parallel_cost(self, alg, power_graph):
        model = builtin_cost_model(alg)
        initial = make_vertex_cut(power_graph, 4, seed=5)
        refined = V2H(model).refine(initial)
        check_partition(refined)
        assert parallel_cost(refined, model) <= parallel_cost(initial, model) * 1.05

    def test_vmerge_creates_ecut_nodes(self, power_graph):
        model = builtin_cost_model("tc")
        initial = make_vertex_cut(power_graph, 4, seed=5)
        vcut_before = sum(
            1 for v, _h in initial.vertex_fragments() if initial.is_vcut_vertex(v)
        )
        refiner = V2H(model)
        refined = refiner.refine(initial)
        vcut_after = sum(
            1 for v, _h in refined.vertex_fragments() if refined.is_vcut_vertex(v)
        )
        assert refiner.last_stats.vmerged > 0
        assert vcut_after < vcut_before

    def test_input_preserved(self, power_graph):
        model = builtin_cost_model("tc")
        initial = make_vertex_cut(power_graph, 4, seed=5)
        before = initial.total_edge_copies()
        V2H(model).refine(initial)
        assert initial.total_edge_copies() == before

    def test_phase_switches(self, power_graph):
        model = builtin_cost_model("tc")
        refiner = V2H(model, enable_vmerge=False, enable_massign=False)
        refined = refiner.refine(make_vertex_cut(power_graph, 4, seed=5))
        check_partition(refined)
        assert refiner.last_stats.vmerged == 0
