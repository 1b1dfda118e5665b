"""Acceptance tests for the guarded refinement pipeline.

The contract points of DESIGN.md §6:

* **Bit-identity** — a guard whose budgets do not fire never changes a
  refiner's output partition or reported costs, and puts no listener on
  the partition;
* **Budgets** — an exhausted budget early-stops with a valid partition;
* **Post-pass check** — a pass that leaves the partition invalid raises
  ``PartitionInvariantError`` instead of returning it;
* **Cost-model guardrails** — ``GuardedCostModel`` keeps NaN/inf
  predictions away from move selection.
"""

import math

import pytest

from repro.core.e2h import E2H
from repro.core.me2h import ME2H
from repro.core.mv2h import MV2H
from repro.core.parallel import ParE2H, ParV2H
from repro.core.v2h import V2H
from repro.costmodel.library import builtin_cost_model
from repro.costmodel.model import CostModel
from repro.graph.generators import chung_lu_power_law
from repro.integrity.guard import GuardConfig
from repro.partition.serialize import partition_to_dict
from repro.partition.validation import PartitionInvariantError, check_partition

from tests.conftest import make_edge_cut, make_vertex_cut

COMPOSITE_MODELS = {
    "pr": builtin_cost_model("pr"),
    "wcc": builtin_cost_model("wcc"),
}


@pytest.fixture(scope="module")
def small_graph():
    return chung_lu_power_law(150, 5.0, exponent=2.1, directed=True, seed=4)


# ----------------------------------------------------------------------
# Bit-identity: an idle guard never changes the output
# ----------------------------------------------------------------------
@pytest.mark.parametrize("interval", [1, 64])
def test_e2h_guarded_output_bit_identical(power_graph, interval):
    model = builtin_cost_model("pr")
    plain = E2H(model)
    refined = plain.refine(make_edge_cut(power_graph, 4))
    guarded = E2H(model, guard_config=GuardConfig(snapshot_interval=interval))
    refined_guarded = guarded.refine(make_edge_cut(power_graph, 4))
    assert partition_to_dict(refined_guarded) == partition_to_dict(refined)
    assert guarded.last_stats.cost_after == plain.last_stats.cost_after
    assert guarded.last_stats.guard.snapshots > 0


def test_v2h_guarded_output_bit_identical(power_graph):
    model = builtin_cost_model("tc")
    plain = V2H(model).refine(make_vertex_cut(power_graph, 4))
    guarded = V2H(model, guard_config=GuardConfig()).refine(
        make_vertex_cut(power_graph, 4)
    )
    assert partition_to_dict(guarded) == partition_to_dict(plain)


def test_me2h_guarded_output_bit_identical(small_graph):
    plain = ME2H(COMPOSITE_MODELS).refine(make_edge_cut(small_graph, 4))
    guarded = ME2H(COMPOSITE_MODELS, guard_config=GuardConfig()).refine(
        make_edge_cut(small_graph, 4)
    )
    for name in COMPOSITE_MODELS:
        assert partition_to_dict(guarded.partition_for(name)) == partition_to_dict(
            plain.partition_for(name)
        )


def test_mv2h_guarded_output_bit_identical(small_graph):
    plain = MV2H(COMPOSITE_MODELS).refine(make_vertex_cut(small_graph, 4))
    guarded = MV2H(COMPOSITE_MODELS, guard_config=GuardConfig()).refine(
        make_vertex_cut(small_graph, 4)
    )
    for name in COMPOSITE_MODELS:
        assert partition_to_dict(guarded.partition_for(name)) == partition_to_dict(
            plain.partition_for(name)
        )


def test_parallel_refiners_guarded_output_bit_identical(small_graph):
    model = builtin_cost_model("pr")
    plain_e, _ = ParE2H(model).refine(make_edge_cut(small_graph, 4))
    guarded_e, profile = ParE2H(model, guard_config=GuardConfig()).refine(
        make_edge_cut(small_graph, 4)
    )
    assert partition_to_dict(guarded_e) == partition_to_dict(plain_e)
    assert profile.stats.guard is not None

    plain_v, _ = ParV2H(model).refine(make_vertex_cut(small_graph, 4))
    guarded_v, _ = ParV2H(model, guard_config=GuardConfig()).refine(
        make_vertex_cut(small_graph, 4)
    )
    assert partition_to_dict(guarded_v) == partition_to_dict(plain_v)


# ----------------------------------------------------------------------
# Budgets and cost-model guardrails
# ----------------------------------------------------------------------
def test_e2h_step_budget_early_stops_with_valid_output(power_graph):
    refiner = E2H(
        builtin_cost_model("pr"), guard_config=GuardConfig(max_steps=5)
    )
    refined = refiner.refine(make_edge_cut(power_graph, 4))
    check_partition(refined)
    stats = refiner.last_stats.guard
    assert stats.early_stopped
    assert stats.steps == 5


def test_composite_budget_exhaustion_keeps_outputs_complete(small_graph):
    # A mid-construction stop must not leave the outputs partial: the
    # phases fall back to cheapest-fragment placement instead.
    refiner = ME2H(COMPOSITE_MODELS, guard_config=GuardConfig(max_steps=10))
    composite = refiner.refine(make_edge_cut(small_graph, 4))
    for name in COMPOSITE_MODELS:
        check_partition(composite.partition_for(name))
    assert any(
        stats.early_stopped for stats in refiner.last_stats.guard.values()
    )


def test_nan_cost_model_never_reaches_move_selection(power_graph):
    class _NaNPoly:
        def evaluate(self, features):
            return float("nan")

    broken = CostModel("pr", _NaNPoly(), _NaNPoly())
    refiner = E2H(broken, guard_config=GuardConfig())
    refined = refiner.refine(make_edge_cut(power_graph, 4))
    check_partition(refined)
    stats = refiner.last_stats
    assert stats.guard.cost_model_interventions > 0
    assert math.isfinite(stats.cost_before)
    assert math.isfinite(stats.cost_after)


# ----------------------------------------------------------------------
# The guard adds no listener, and its post-pass check raises
# ----------------------------------------------------------------------
class _Listening(E2H):
    """E2H that records the partition's listeners from inside a phase."""

    def _phase_plan(self):
        def look(state):
            self.seen = list(state.partition._listeners)

        return super()._phase_plan() + (("look", True, look),)


def test_guarded_pass_adds_no_partition_listener(power_graph):
    model = builtin_cost_model("pr")
    plain = _Listening(model)
    plain.refine(make_edge_cut(power_graph, 4))
    guarded = _Listening(model, guard_config=GuardConfig(snapshot_interval=1))
    guarded.refine(make_edge_cut(power_graph, 4))
    assert len(guarded.seen) == len(plain.seen)


class _CoverageBreaker(E2H):
    """E2H with a buggy extra phase: it drops an edge held by one fragment."""

    def _phase_plan(self):
        def drop_an_edge(state):
            partition = state.partition
            fid, edge = next(
                (f.fid, e)
                for f in partition.fragments
                for e in sorted(f.edges())
                if sum(g.has_edge(e) for g in partition.fragments) == 1
            )
            partition.remove_edge_from(fid, edge)

        return super()._phase_plan() + (("break", True, drop_an_edge),)


def test_a_pass_that_breaks_coverage_raises_and_leaks_no_listener(power_graph):
    partition = make_edge_cut(power_graph, 4)
    refiner = _CoverageBreaker(builtin_cost_model("pr"), guard_config=GuardConfig())
    with pytest.raises(PartitionInvariantError, match="not covered"):
        refiner.refine(partition, in_place=True)
    assert partition._listeners == []
