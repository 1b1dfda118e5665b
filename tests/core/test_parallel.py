"""Tests for the BSP-parallelized refiners (Section 5.3)."""

from collections import Counter

import pytest

from repro.core import me2h, v2h
from repro.core.massign import massign
from repro.core.me2h import ME2H
from repro.core.operations import vmerge
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


class TestCompositeSchedules:
    """ParME2H / ParMV2H charge each phase from per-worker work lists: at
    ``batch_size=1`` a phase takes as many rounds as its busiest worker
    has items, not ``ceil(total / n)``."""

    MODELS = ("cn", "pr")

    def test_init_rounds_follow_the_largest_input_fragment(self, power_graph):
        initial = make_edge_cut(power_graph, 3, seed=13)
        models = builtin_cost_models(self.MODELS)
        units = Counter(fid for fid, _unit in ME2H(models)._units(initial))
        _composite, profile = ParME2H(models, batch_size=1).refine(initial)
        assert profile.phase_supersteps["init"] == max(units.values())

    def test_massign_rounds_follow_the_busiest_master(self, power_graph, monkeypatch):
        masters, outputs = Counter(), []

        def spy(tracker, scorer, **kwargs):
            output = tracker.partition
            outputs.append(output)
            masters.update(
                output.master(v)
                for v, hosts in output.vertex_fragments()
                if len(hosts) > 1
            )
            return massign(tracker, scorer, **kwargs)

        monkeypatch.setattr(me2h, "massign", spy)
        initial = make_edge_cut(power_graph, 3, seed=13)
        refiner = ParME2H(builtin_cost_models(self.MODELS), batch_size=1)
        _composite, profile = refiner.refine(initial)
        assert len(outputs) == len(self.MODELS)
        # The border copies each worker masters, summed over the outputs.
        assert profile.phase_supersteps["massign"] == max(masters.values())

    def test_eassign_charges_each_residue_unit_at_its_input_fragment(
        self, power_graph, monkeypatch
    ):
        per_worker = Counter()
        tail = ME2H._tail

        def spy(refiner, run, residue):
            for fid, _unit, names in residue:
                per_worker[fid] += len(names)
            return tail(refiner, run, residue)

        monkeypatch.setattr(ME2H, "_tail", spy)
        initial = make_edge_cut(power_graph, 3, seed=13)
        refiner = ParME2H(builtin_cost_models(self.MODELS), batch_size=1)
        _composite, profile = refiner.refine(initial)
        assert sum(per_worker.values()) == profile.composite_stats.eassign_units > 0
        assert profile.phase_supersteps["eassign"] == max(per_worker.values())

    def test_vmerge_charges_each_promotion_at_its_fragment(
        self, power_graph, monkeypatch
    ):
        per_worker, outputs = Counter(), set()

        def spy(partition, v, fid, missing=None):
            per_worker[fid] += 1
            outputs.add(id(partition))
            return vmerge(partition, v, fid, missing)

        monkeypatch.setattr(v2h, "vmerge", spy)
        initial = make_vertex_cut(power_graph, 3, seed=13)
        refiner = ParMV2H(builtin_cost_models(self.MODELS), batch_size=1)
        _composite, profile = refiner.refine(initial)
        assert len(outputs) == len(self.MODELS)
        assert sum(per_worker.values()) == profile.composite_stats.vmerged > 0
        assert profile.phase_supersteps["vmerge"] == max(per_worker.values())

    @pytest.mark.parametrize(
        "refiner_cls, make, base",
        [(ParME2H, make_edge_cut, "ME2H"), (ParMV2H, make_vertex_cut, "MV2H")],
    )
    def test_no_incremental_pass(self, power_graph, refiner_cls, make, base):
        refiner = refiner_cls(builtin_cost_models(self.MODELS))
        composite, _profile = refiner.refine(make(power_graph, 3, seed=13))
        with pytest.raises(NotImplementedError, match=f"use {base}.refine_incremental"):
            refiner.refine_incremental(composite, {0, 1})
