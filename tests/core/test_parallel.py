"""Tests for the BSP-parallelized refiners (Section 5.3)."""

import pytest

from repro.core.parallel import ParE2H, ParME2H, ParMV2H, ParV2H
from repro.core.tracker import CostTracker
from repro.costmodel.library import builtin_cost_model, builtin_cost_models
from repro.partition.validation import check_partition

from tests.conftest import make_edge_cut, make_vertex_cut


class TestParE2H:
    def test_refines_and_profiles(self, power_graph):
        model = builtin_cost_model("cn")
        initial = make_edge_cut(power_graph, 4, seed=11)
        refined, profile = ParE2H(model).refine(initial)
        check_partition(refined)
        assert profile.total_time > 0
        assert set(profile.phase_times) == {"setup", "emigrate", "esplit", "massign"}
        assert profile.stats.cost_after < profile.stats.cost_before

    def test_batch_size_affects_supersteps(self, power_graph):
        model = builtin_cost_model("cn")
        initial = make_edge_cut(power_graph, 4, seed=11)
        _p1, small = ParE2H(model, batch_size=4).refine(initial)
        _p2, large = ParE2H(model, batch_size=256).refine(initial)
        assert sum(small.phase_supersteps.values()) >= sum(
            large.phase_supersteps.values()
        )

    def test_phase_flags(self, power_graph):
        model = builtin_cost_model("cn")
        initial = make_edge_cut(power_graph, 4, seed=11)
        _p, profile = ParE2H(model, enable_esplit=False).refine(initial)
        assert "esplit" not in profile.phase_times

    def test_comparable_quality_to_sequential(self, power_graph):
        from repro.core.e2h import E2H

        model = builtin_cost_model("cn")
        initial = make_edge_cut(power_graph, 4, seed=11)
        seq = E2H(model).refine(initial)
        par, _profile = ParE2H(model).refine(initial)
        t_seq = CostTracker(seq, model)
        t_par = CostTracker(par, model)
        assert t_par.parallel_cost() <= 1.5 * t_seq.parallel_cost()
        t_seq.detach()
        t_par.detach()


class TestParV2H:
    def test_refines_and_profiles(self, power_graph):
        model = builtin_cost_model("tc")
        initial = make_vertex_cut(power_graph, 4, seed=12)
        refined, profile = ParV2H(model).refine(initial)
        check_partition(refined)
        assert set(profile.phase_times) == {"setup", "vmigrate", "vmerge", "massign"}
        assert profile.stats.cost_after <= profile.stats.cost_before * 1.05

    def test_in_place(self, power_graph):
        model = builtin_cost_model("tc")
        initial = make_vertex_cut(power_graph, 4, seed=12)
        refined, _profile = ParV2H(model).refine(initial, in_place=True)
        assert refined is initial


class TestComposite:
    def test_parme2h(self, power_graph):
        models = builtin_cost_models(("cn", "pr"))
        initial = make_edge_cut(power_graph, 3, seed=13)
        composite, profile = ParME2H(models).refine(initial)
        for name in models:
            check_partition(composite.partition_for(name))
        assert profile.total_time > 0
        assert profile.composite_stats is not None

    def test_parmv2h(self, power_graph):
        models = builtin_cost_models(("cn", "pr"))
        initial = make_vertex_cut(power_graph, 3, seed=13)
        composite, profile = ParMV2H(models).refine(initial)
        for name in models:
            check_partition(composite.partition_for(name))
        assert set(profile.phase_times) == {"init", "vassign", "vmerge", "massign"}
        assert profile.composite_stats.vmerged > 0
        assert profile.phase_supersteps["vmerge"] > 0
