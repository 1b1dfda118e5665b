"""Acceptance tests for the guarded refinement pipeline.

The two contract points of DESIGN.md §6:

* **Bit-identity** — guards at any cadence with no chaos never change a
  refiner's output partition or reported costs;
* **Chaos survival** — under deterministic corruption of placements,
  masters, and role tags (seven seeds), every guarded refiner returns a
  partition passing ``check_partition`` with zero unrepaired
  violations, and ``GuardedCostModel`` keeps NaN/inf predictions away
  from move selection.
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
from repro.integrity.chaos import DEFAULT_KINDS, ChaosPlan
from repro.integrity.guard import GuardConfig
from repro.partition.hybrid import HybridPartition
from repro.partition.serialize import partition_to_dict
from repro.partition.validation import check_partition

from tests.conftest import make_edge_cut, make_vertex_cut

SEEDS = (3, 5, 7, 11, 13, 29, 47)

COMPOSITE_MODELS = {
    "pr": builtin_cost_model("pr"),
    "wcc": builtin_cost_model("wcc"),
}


@pytest.fixture(scope="module")
def small_graph():
    return chung_lu_power_law(150, 5.0, exponent=2.1, directed=True, seed=4)


def chaos_config(seed, kinds=DEFAULT_KINDS, rate=0.3):
    return GuardConfig(
        check_interval=4,
        chaos=ChaosPlan(seed=seed, corrupt_rate=rate, kinds=kinds),
    )


# ----------------------------------------------------------------------
# Bit-identity: guards without chaos never change the output
# ----------------------------------------------------------------------
@pytest.mark.parametrize("interval", [1, 64])
def test_e2h_guarded_output_bit_identical(power_graph, interval):
    model = builtin_cost_model("pr")
    plain = E2H(model)
    refined = plain.refine(make_edge_cut(power_graph, 4))
    guarded = E2H(model, guard_config=GuardConfig(check_interval=interval))
    refined_guarded = guarded.refine(make_edge_cut(power_graph, 4))
    assert partition_to_dict(refined_guarded) == partition_to_dict(refined)
    assert guarded.last_stats.cost_after == plain.last_stats.cost_after
    assert guarded.last_stats.guard.checks > 0


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
# Chaos survival: ≥ 5 seeds × corruption kinds, every refiner
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", SEEDS)
def test_e2h_survives_chaos(small_graph, seed):
    refiner = E2H(builtin_cost_model("pr"), guard_config=chaos_config(seed))
    refined = refiner.refine(make_edge_cut(small_graph, 4))
    check_partition(refined)
    assert refiner.last_stats.guard.unrepaired_violations == 0


@pytest.mark.parametrize("seed", SEEDS)
def test_v2h_survives_chaos(small_graph, seed):
    refiner = V2H(builtin_cost_model("tc"), guard_config=chaos_config(seed))
    refined = refiner.refine(make_vertex_cut(small_graph, 4))
    check_partition(refined)
    assert refiner.last_stats.guard.unrepaired_violations == 0


@pytest.mark.parametrize("seed", SEEDS)
def test_me2h_survives_chaos(small_graph, seed):
    refiner = ME2H(COMPOSITE_MODELS, guard_config=chaos_config(seed))
    composite = refiner.refine(make_edge_cut(small_graph, 4))
    for name in COMPOSITE_MODELS:
        check_partition(composite.partition_for(name))
        assert refiner.last_stats.guard[name].unrepaired_violations == 0


@pytest.mark.parametrize("seed", SEEDS)
def test_mv2h_survives_chaos(small_graph, seed):
    refiner = MV2H(COMPOSITE_MODELS, guard_config=chaos_config(seed))
    composite = refiner.refine(make_vertex_cut(small_graph, 4))
    for name in COMPOSITE_MODELS:
        check_partition(composite.partition_for(name))
        assert refiner.last_stats.guard[name].unrepaired_violations == 0


@pytest.mark.parametrize("kind", DEFAULT_KINDS)
def test_e2h_survives_each_corruption_kind(power_graph, kind):
    refiner = E2H(
        builtin_cost_model("pr"),
        guard_config=chaos_config(7, kinds=(kind,), rate=0.5),
    )
    refined = refiner.refine(make_edge_cut(power_graph, 4))
    check_partition(refined)
    stats = refiner.last_stats.guard
    assert stats.corruptions_injected > 0
    assert stats.repairs > 0
    assert stats.unrepaired_violations == 0


def test_e2h_survives_unrepairable_edge_loss(power_graph):
    # Lost fragment contents cannot be re-derived: the guard rolls back.
    refiner = E2H(
        builtin_cost_model("pr"),
        guard_config=GuardConfig(
            check_interval=2,
            chaos=ChaosPlan(seed=11, corrupt_rate=0.2, kinds=("edges",)),
        ),
    )
    refined = refiner.refine(make_edge_cut(power_graph, 4))
    check_partition(refined)
    stats = refiner.last_stats.guard
    assert stats.corruptions_injected > 0
    assert stats.rollbacks > 0
    assert stats.unrepaired_violations == 0


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
# Regression: stale placement index healed by add_vertex_to / emigrate
# ----------------------------------------------------------------------
def test_chaos_seed_7058_stale_placement_survives():
    """Exact repro of the pre-resilience placement-index crash.

    Chaos at seed 7058 removed a fragment from ``_placement[v]`` while
    the fragment still held the copy (and its edges); the next EMigrate
    to that fragment found every edge already present, so nothing
    re-indexed the endpoint, and ``set_master`` raised ``ValueError:
    fragment 0 holds no copy of vertex 4``.  The placement self-check in
    ``emigrate`` (backed by the ``add_vertex_to`` heal) must repair the
    index in place instead.
    """
    from repro.graph.digraph import Graph

    graph = Graph(6, [(2, 4), (5, 0)], directed=False)
    partition = HybridPartition.from_vertex_assignment(
        graph, [0 if v == 1 else 1 for v in range(6)], 2
    )
    refiner = E2H(
        builtin_cost_model("pr"),
        guard_config=GuardConfig(
            check_interval=2, chaos=ChaosPlan(seed=7058, corrupt_rate=0.5)
        ),
    )
    refined = refiner.refine(partition)
    check_partition(refined)
    assert refiner.last_stats.guard.unrepaired_violations == 0


def test_add_vertex_to_heals_stale_placement_entry():
    """Direct unit repro: a held-but-unindexed copy is re-indexed."""
    from repro.graph.digraph import Graph

    graph = Graph(4, [(0, 1), (2, 3)], directed=False)
    partition = HybridPartition.from_vertex_assignment(graph, [0, 0, 1, 1], 2)
    # Simulate index corruption: fragment 0 still holds vertex 1, but the
    # placement index forgets it.
    partition._placement[1].discard(0)
    assert partition.fragments[0].has_vertex(1)
    added = partition.add_vertex_to(0, 1)
    assert not added  # the copy was already there...
    assert 0 in partition._placement[1]  # ...but the index is healed
    partition.set_master(1, 0)  # and the master move cannot crash
    check_partition(partition)


def test_v2h_vmerge_into_stale_placement_entry_survives():
    """Exact repro of a VMerge crash under chaos seed 1123.

    Chaos dropped fragment 1 from ``_placement[3]`` while fragment 1
    still held vertex 3; the VMerge of 3 into fragment 1 brought edge
    (0, 3) over without re-indexing the already-present endpoint, and
    ``set_master`` raised ``ValueError: fragment 1 holds no copy of
    vertex 3``.  ``set_master`` now asks the fragment and heals the index.
    """
    from repro.graph.digraph import Graph

    graph = Graph(6, [(0, 1), (0, 2), (0, 3), (1, 3)], directed=False)
    partition = HybridPartition.from_edge_assignment(
        graph, {(0, 1): 0, (0, 2): 0, (0, 3): 0, (1, 3): 1}, 2
    )
    refiner = V2H(
        builtin_cost_model("tc"),
        guard_config=GuardConfig(
            check_interval=2, chaos=ChaosPlan(seed=1123, corrupt_rate=0.5)
        ),
    )
    refined = refiner.refine(partition)
    check_partition(refined)
    assert refiner.last_stats.guard.unrepaired_violations == 0


def test_set_master_heals_stale_placement_entry():
    """Direct unit repro: a held-but-unindexed copy can take the master."""
    from repro.graph.digraph import Graph

    graph = Graph(4, [(0, 1), (2, 3)], directed=False)
    partition = HybridPartition.from_vertex_assignment(graph, [0, 0, 1, 1], 2)
    partition._placement[1].discard(0)
    partition.set_master(1, 0)
    assert 0 in partition._placement[1]
    assert partition.master(1) == 0
    check_partition(partition)
    with pytest.raises(ValueError):
        partition.set_master(1, 1)  # fragment 1 really holds no copy


# ----------------------------------------------------------------------
# Regression: removing the last *indexed* copy of a vertex that still has
# real ones (chaos "drop" twice on one vertex, then two VMigrates)
# ----------------------------------------------------------------------
def test_vmigrate_off_the_last_indexed_copy_survives_under_the_guard():
    """The placement index of ``v`` is down to one host while two more
    fragments hold copies.  VMigrating away from the indexed copy used to
    delete the entry and the master; the next VMigrate then raised
    ``AttributeError: 'NoneType' object has no attribute 'discard'``.
    Removal (and the star transaction's prune step, which shares it) now
    asks the fragments first, so the guarded run ends valid."""
    from repro.core.driver import RefineSession
    from repro.core.operations import vmigrate
    from repro.graph.digraph import Graph
    from repro.integrity.chaos import apply_payload

    graph = Graph(7, [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (0, 6)], directed=False)
    assignment = {edge: fid for edge, fid in zip(sorted(graph.edges()), (0, 0, 1, 1, 2, 2))}
    partition = HybridPartition.from_edge_assignment(graph, assignment, 3)
    assert partition.placement(0) == {0, 1, 2}
    config = GuardConfig(check_interval=1000)  # nothing repairs in between
    with RefineSession(partition, builtin_cost_model("tc"), config, None) as session:
        for fid in (1, 2):
            apply_payload(
                partition,
                {"kind": "placement", "op": "drop", "vertex": 0, "fragment": fid},
            )
        vmigrate(partition, 0, 0, 1)  # off the last indexed copy
        assert partition.placement(0) == {1, 2}
        assert partition.master(0) == 1
        session.guard.step()
        vmigrate(partition, 0, 1, 2)  # used to raise AttributeError
        session.guard.step()
        stats = session.guard.finish()
    check_partition(partition)
    assert partition.placement(0) == {2}
    assert stats.unrepaired_violations == 0
