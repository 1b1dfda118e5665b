"""Tests for the RefinementGuard harness: cadence, budgets, best-so-far."""

import pytest

from repro.integrity.guard import (
    GuardConfig,
    RefinementBudgetExceeded,
    RefinementGuard,
)
from repro.partition.serialize import partition_to_dict
from repro.partition.validation import PartitionInvariantError

from tests.conftest import make_edge_cut


def test_config_validation():
    with pytest.raises(ValueError, match="snapshot_interval"):
        GuardConfig(snapshot_interval=0)
    with pytest.raises(ValueError, match="max_steps"):
        GuardConfig(max_steps=0)
    with pytest.raises(ValueError, match="max_seconds"):
        GuardConfig(max_seconds=0.0)


def test_snapshot_cadence(power_graph):
    partition = make_edge_cut(power_graph, 4)
    guard = RefinementGuard(
        partition, GuardConfig(snapshot_interval=4), cost_fn=lambda: 1.0
    )
    assert guard.stats.snapshots == 1  # the starting state
    for _ in range(10):
        guard.step()
    assert guard.stats.steps == 10
    assert guard.stats.snapshots == 3  # and at steps 4 and 8
    guard.finish()
    assert guard.stats.snapshots == 3


def test_no_snapshots_without_a_cost_fn(power_graph):
    partition = make_edge_cut(power_graph, 4)
    guard = RefinementGuard(partition, GuardConfig(snapshot_interval=1))
    for _ in range(10):
        guard.step()
    assert guard.finish().snapshots == 0


def test_step_budget_raises(power_graph):
    partition = make_edge_cut(power_graph, 4)
    guard = RefinementGuard(partition, GuardConfig(max_steps=3))
    guard.step()
    guard.step()
    with pytest.raises(RefinementBudgetExceeded):
        guard.step()


def test_wall_clock_budget_raises(power_graph):
    partition = make_edge_cut(power_graph, 4)
    guard = RefinementGuard(partition, GuardConfig(max_seconds=1e-9))
    with pytest.raises(RefinementBudgetExceeded):
        guard.step()


def _move_a_master(partition):
    """A real move, so the current state differs from the starting one."""
    v = next(
        v for v, hosts in partition.vertex_fragments() if len(hosts) > 1
    )
    other = next(
        fid for fid in sorted(partition.placement(v)) if fid != partition.master(v)
    )
    partition.set_master(v, other)


def test_early_stop_restores_best_snapshot(power_graph):
    partition = make_edge_cut(power_graph, 4)
    best_state = partition_to_dict(partition)
    costs = iter([1.0, 5.0, 5.0, 5.0, 5.0])
    guard = RefinementGuard(
        partition,
        GuardConfig(snapshot_interval=1),
        cost_fn=lambda: next(costs),
    )
    _move_a_master(partition)
    guard.step()  # snapshot at cost 5.0: best stays at 1.0
    assert partition_to_dict(partition) != best_state
    guard.finish(early_stopped=True)
    assert guard.stats.early_stopped
    assert partition_to_dict(partition) == best_state


def test_no_restore_without_early_stop(power_graph):
    partition = make_edge_cut(power_graph, 4)
    costs = iter([1.0, 5.0, 5.0, 5.0, 5.0])
    guard = RefinementGuard(
        partition,
        GuardConfig(snapshot_interval=1),
        cost_fn=lambda: next(costs),
    )
    _move_a_master(partition)
    guard.step()
    moved_state = partition_to_dict(partition)
    guard.finish()  # normal completion keeps the refiner's final state
    assert partition_to_dict(partition) == moved_state


def test_finish_is_idempotent(power_graph):
    partition = make_edge_cut(power_graph, 4)
    guard = RefinementGuard(partition, GuardConfig())
    guard.step()
    stats = guard.finish()
    assert guard.finish() is stats
    assert stats.steps == 1


def test_guard_only_reads(power_graph):
    partition = make_edge_cut(power_graph, 4)
    before = partition_to_dict(partition)
    listeners = list(partition._listeners)
    guard = RefinementGuard(
        partition, GuardConfig(snapshot_interval=1), cost_fn=lambda: 1.0
    )
    assert partition._listeners == listeners
    for _ in range(10):
        guard.step()
    guard.finish()
    assert partition_to_dict(partition) == before


def test_finish_raises_on_a_broken_partition(power_graph):
    partition = make_edge_cut(power_graph, 4)
    guard = RefinementGuard(partition, GuardConfig())
    fid, edge = next(
        (f.fid, e)
        for f in partition.fragments
        for e in sorted(f.edges())
        if sum(g.has_edge(e) for g in partition.fragments) == 1
    )
    partition.remove_edge_from(fid, edge)  # the edge is now nowhere
    with pytest.raises(PartitionInvariantError, match="not covered"):
        guard.finish()
