"""The mutation journal under batched appends (DESIGN §8.2, §15).

A star transaction journals all its touched vertices in one ``extend``.
With the cap shrunk so a single transaction crosses it, the window must
stay exact — ``mutations_since`` answers with the precise set inside it
and ``None`` before it — consumers older than the window must fall back
to their slow-but-right path, and ``generation`` must never repeat.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.tracker import CostTracker
from repro.costmodel.library import builtin_cost_model
from repro.graph.digraph import Graph
from repro.partition import hybrid
from repro.partition.hybrid import HybridPartition
from repro.runtime import plan as plan_module
from repro.runtime.plan import FragmentPlan, plan_for, plan_stats

LEAVES = 12


def star(fragments: int = 3) -> HybridPartition:
    """Vertex 0 with ``LEAVES`` out-neighbours, everything in fragment 0."""
    graph = Graph(LEAVES + 1, [(0, leaf) for leaf in range(1, LEAVES + 1)], directed=True)
    return HybridPartition.from_vertex_assignment(graph, [0] * (LEAVES + 1), fragments)


def spokes(partition: HybridPartition, fid: int):
    return sorted(partition.fragments[fid].incident(0))


def assert_window_exact(partition: HybridPartition, log) -> None:
    """``log[i]`` is the vertex whose notification ended generation ``i``."""
    assert partition.generation == len(log)
    start = partition._journal_start
    assert start + len(partition._journal) == partition.generation
    for generation in range(len(log) + 1):
        delta = partition.mutations_since(generation)
        if generation < start:
            assert delta is None
        else:
            assert delta == set(log[generation:])


@pytest.mark.parametrize("cap", [1, 4, 8, 13, 14])
def test_a_transaction_crossing_the_cap_keeps_the_window_exact(monkeypatch, cap):
    monkeypatch.setattr(hybrid, "JOURNAL_CAP", cap)
    partition = star()
    log = []
    partition.add_listener(log.append)
    generations = [partition.generation]

    def settled() -> None:
        assert partition.generation > generations[-1]  # strictly monotonic
        generations.append(partition.generation)
        assert len(partition._journal) <= max(cap, 1)
        assert_window_exact(partition, log)

    partition.set_master(0, 0)  # no change: nothing journalled
    assert partition.generation == generations[-1]
    partition.add_edge_to(1, (0, 1))
    settled()
    # One batch of LEAVES + 1 first touches, the centre pruned at the source.
    partition.transfer_star(0, spokes(partition, 0), 2, src=0, keep="none")
    assert partition.generation - generations[-1] == LEAVES + 1
    assert len(set(log[generations[-1]:])) == LEAVES + 1  # nobody twice
    settled()
    partition.transfer_star(0, spokes(partition, 2), 0, src=2, keep="bearing")
    settled()
    partition.remove_edge_from(1, (0, 1))
    settled()


def test_a_seed_older_than_the_window_falls_back_to_a_cold_rebuild(monkeypatch):
    model = builtin_cost_model("pr")
    partition = star()
    tracker = CostTracker(partition, model)
    stale = tracker.snapshot()
    monkeypatch.setattr(hybrid, "JOURNAL_CAP", 8)
    partition.transfer_star(0, spokes(partition, 0), 1, src=0, keep="none")
    assert partition.mutations_since(stale.generation) is None
    fresh = tracker.snapshot()  # taken inside the window
    partition.add_edge_to(2, (0, 1))
    cold = CostTracker(partition, model)
    rebuilt = CostTracker(partition, model, seed=stale)
    assert not rebuilt.seeded  # and therefore priced exactly like a cold tracker
    assert [c.hex() for c in rebuilt.comp_costs()] == [c.hex() for c in cold.comp_costs()]
    assert [c.hex() for c in rebuilt.comm_costs()] == [c.hex() for c in cold.comm_costs()]
    replayed = CostTracker(partition, model, seed=fresh)
    assert replayed.seeded
    assert replayed.comp_costs() == pytest.approx(cold.comp_costs(), abs=1e-9)
    assert replayed.comm_costs() == pytest.approx(cold.comm_costs(), abs=1e-9)
    for other in (cold, rebuilt, replayed):
        other.detach()
    tracker.detach()


def test_a_plan_older_than_the_window_is_recompiled_not_patched(monkeypatch):
    partition = star()
    plan_for(partition)
    monkeypatch.setattr(hybrid, "JOURNAL_CAP", 8)
    monkeypatch.setattr(plan_module, "PATCH_FRACTION", 1.0)
    partition.transfer_star(0, spokes(partition, 0)[:3], 1, src=0, keep="none")
    recompiled, patched, _ = plan_stats().snapshot()
    inside = plan_for(partition, incremental=True)
    assert plan_stats().snapshot()[:2] == (recompiled, patched + 1)
    partition.transfer_star(0, spokes(partition, 0), 2, src=0, keep="none")
    assert partition.mutations_since(inside.generation) is None
    outside = plan_for(partition, incremental=True)
    assert plan_stats().snapshot()[:2] == (recompiled + 1, patched + 1)
    fresh = FragmentPlan(partition)
    for name in ("master_of", "rep_count", "border_mask", "place_indptr", "place_fids"):
        assert np.array_equal(getattr(outside, name), getattr(fresh, name))
