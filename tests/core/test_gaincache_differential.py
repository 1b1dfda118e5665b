"""Differential suite: gain-cached refiners vs. the uncached oracle.

The gain cache (``repro.core.gaincache``, DESIGN.md §8) promises *exact*
speedups: every refiner must produce bit-identical partitions,
bit-identical tracked costs, and an identical mutation sequence to the
same refiner run under the uncached ``DirectScorer``
(``tests/oracles/direct_scorer.py``, installed with ``monkeypatch``).
This suite checks that promise for all six refiners across a grid of
generated graphs and seeds, plus a hypothesis property test that
interleaves random partition mutations with scorer queries and compares
every answer against a fresh raw-model evaluation (a stale memo entry or
a stale tracker read would surface directly).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import E2H, ME2H, MV2H, ParE2H, ParV2H, V2H
from repro.core.gaincache import GainCache
from repro.core.operations import emigrate
from repro.core.tracker import CostTracker
from repro.costmodel.features import hypothetical_ecut_features
from repro.costmodel.library import builtin_cost_model
from repro.graph.generators import chung_lu_power_law, road_grid
from repro.partition.serialize import partition_to_dict

from tests.conftest import make_edge_cut, make_vertex_cut
from tests.oracles.direct_scorer import use_direct_scorer

NUM_FRAGMENTS = 4
SEEDS = (0, 1, 2, 3, 4)
COMPOSITE_ALGS = ("pr", "wcc")

#: Three generated graph families; each seed yields a distinct instance.
GRAPHS = {
    "powerlaw_directed": lambda seed: chung_lu_power_law(
        80, 5.0, exponent=2.1, directed=True, seed=seed
    ),
    "powerlaw_undirected": lambda seed: chung_lu_power_law(
        100, 4.0, exponent=2.3, directed=False, seed=seed + 100
    ),
    "road_grid": lambda seed: road_grid(6, 6, seed=seed),
}


@functools.lru_cache(maxsize=None)
def _graph(kind: str, seed: int):
    return GRAPHS[kind](seed)


def _initial(graph, input_kind: str, seed: int):
    if input_kind == "edge":
        return make_edge_cut(graph, NUM_FRAGMENTS, seed=seed)
    return make_vertex_cut(graph, NUM_FRAGMENTS, seed=seed)


def _stats_signature(stats) -> Dict:
    """Comparable subset of RefineStats (timing/cache fields excluded)."""
    return {
        "budget": stats.budget,
        "overloaded": stats.overloaded,
        "candidates": stats.candidates,
        "emigrated": stats.emigrated,
        "split_vertices": stats.split_vertices,
        "split_edges": stats.split_edges,
        "vmigrated": stats.vmigrated,
        "vmerged": stats.vmerged,
        "master_moves": stats.master_moves,
        "cost_before": stats.cost_before,
        "cost_after": stats.cost_after,
    }


@dataclass
class RunResult:
    """Everything a differential comparison looks at."""

    partitions: Dict[str, Dict]
    costs: Dict
    moves: List[int]
    stats: Dict
    cache_stats: object = None


def _run_single(refiner_cls, graph, input_kind, seed):
    model = builtin_cost_model("pr")
    working = _initial(graph, input_kind, seed)
    # The refiner mutates ``working`` in place; the partition listener
    # records the exact mutation sequence (vertex per structural event).
    moves: List[int] = []
    working.add_listener(moves.append)
    refiner = refiner_cls(model)
    result = refiner.refine(working, in_place=True)
    working.remove_listener(moves.append)
    if isinstance(result, tuple):  # parallel refiners: (partition, profile)
        refined, profile = result
        stats = profile.stats
        costs = {
            "cost_before": stats.cost_before,
            "cost_after": stats.cost_after,
            "total_time": profile.total_time,
            "phase_supersteps": dict(profile.phase_supersteps),
        }
    else:
        refined = result
        stats = refiner.last_stats
        costs = {
            "cost_before": stats.cost_before,
            "cost_after": stats.cost_after,
        }
    return RunResult(
        partitions={"pr": partition_to_dict(refined)},
        costs=costs,
        moves=moves,
        stats=_stats_signature(stats),
        cache_stats=stats.gain_cache,
    )


def _run_composite(refiner_cls, graph, input_kind, seed):
    models = {name: builtin_cost_model(name) for name in COMPOSITE_ALGS}
    initial = _initial(graph, input_kind, seed)
    refiner = refiner_cls(models)
    composite = refiner.refine(initial)
    stats = refiner.last_stats
    return RunResult(
        partitions={
            name: partition_to_dict(part)
            for name, part in composite.partitions.items()
        },
        costs={"budgets": dict(stats.budgets)},
        # Composites build their outputs internally; the unit counters
        # summarize the move sequence instead of a listener log.
        moves=[stats.core_units, stats.vassign_units, stats.eassign_units],
        stats={"budgets": dict(stats.budgets)},
        cache_stats=stats.gain_cache,
    )


def _per_output(cache_stats) -> List:
    """``RefineStats.gain_cache`` or ``CompositeStats.gain_cache``, listed."""
    if isinstance(cache_stats, dict):
        return list(cache_stats.values())
    return [cache_stats]


REFINERS = {
    "e2h": (E2H, "edge", _run_single),
    "v2h": (V2H, "vertex", _run_single),
    "me2h": (ME2H, "edge", _run_composite),
    "mv2h": (MV2H, "vertex", _run_composite),
    "pare2h": (ParE2H, "edge", _run_single),
    "parv2h": (ParV2H, "vertex", _run_single),
}


@pytest.mark.parametrize("graph_kind", sorted(GRAPHS))
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("refiner_key", sorted(REFINERS))
def test_cached_path_bit_identical(refiner_key, graph_kind, seed, monkeypatch):
    """Cached and uncached runs agree on partitions, costs, and moves."""
    refiner_cls, input_kind, runner = REFINERS[refiner_key]
    graph = _graph(graph_kind, seed)
    cached = runner(refiner_cls, graph, input_kind, seed)
    with monkeypatch.context() as patch:
        use_direct_scorer(patch)
        uncached = runner(refiner_cls, graph, input_kind, seed)

    assert cached.partitions == uncached.partitions
    assert cached.costs == uncached.costs  # exact float equality
    assert cached.moves == uncached.moves
    assert cached.stats == uncached.stats
    # The cached run actually exercised the cache; the oracle has none.
    for stats in _per_output(cached.cache_stats):
        assert stats.hits + stats.misses > 0
    assert set(_per_output(uncached.cache_stats)) == {None}


def test_cache_reports_hits_on_repeat_work():
    """A refinement with repeated candidate scoring records value-memo hits."""
    graph = _graph("powerlaw_directed", 0)
    result = _run_single(E2H, graph, "edge", 0)
    stats = result.cache_stats
    assert stats.value_misses > 0
    assert stats.value_hits > 0  # feature profiles repeat on power laws


# ----------------------------------------------------------------------
# Property test: random mutation/query interleavings
# ----------------------------------------------------------------------

def _fresh_cache_env():
    graph = chung_lu_power_law(40, 4.0, exponent=2.1, directed=True, seed=5)
    partition = make_edge_cut(graph, 3, seed=1)
    raw = builtin_cost_model("pr")
    cache = GainCache(partition, raw)
    tracker = CostTracker(partition, cache.model)
    cache.bind(tracker)
    return partition, raw, cache, tracker


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=st.data())
def test_random_interleavings_match_raw_oracle(data):
    """Every scorer answer equals a fresh raw-model evaluation.

    Interleaves partition mutations (EMigrate moves, master flips) with
    scorer queries in a hypothesis-drawn order.  A stale answer would
    surface as a float differing from the oracle, which is recomputed
    from the *current* partition state on every query.
    """
    partition, raw, cache, tracker = _fresh_cache_env()
    try:
        avg = tracker.avg_degree
        num_vertices = partition.graph.num_vertices
        ops = data.draw(
            st.lists(
                st.tuples(
                    st.sampled_from(
                        ["query_ecut", "query_massign", "move", "master"]
                    ),
                    st.integers(0, num_vertices - 1),
                    st.integers(0, partition.num_fragments - 1),
                ),
                min_size=5,
                max_size=60,
            )
        )
        for op, v, fid in ops:
            hosts = sorted(partition.placement(v))
            if op == "query_ecut":
                expected = raw.h_value(
                    hypothetical_ecut_features(partition, v, avg)
                )
                assert cache.price_as_ecut(v) == expected
            elif op == "query_massign":
                if not hosts:
                    continue
                target = hosts[fid % len(hosts)]
                expected = (
                    raw.comm_cost_if_master_at(partition, v, target, avg),
                    raw.comp_master_delta(partition, v, target, avg),
                )
                assert cache.host_scores(v, [target]) == [expected]
            elif op == "master":
                if not hosts:
                    continue
                partition.set_master(v, hosts[fid % len(hosts)])
            else:  # move: EMigrate v's edges out of one of its fragments
                if not hosts:
                    continue
                src = hosts[fid % len(hosts)]
                dst = (src + 1) % partition.num_fragments
                emigrate(partition, v, src, dst)
    finally:
        tracker.detach()

