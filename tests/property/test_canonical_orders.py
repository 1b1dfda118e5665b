"""Results depend on contents, never on insertion history (DESIGN §8.2).

Every index of a :class:`HybridPartition` that is read in order is read by
vertex id, then fragment id, then packed edge key, so two partitions with
equal contents must refine, price and run identically however they were
built.  Each input below is built four ways — bulk-loaded vs replayed one
edge at a time in shuffled order, ``p`` vs ``p.copy()``, ``p`` vs a
save/load round trip, ``refine(in_place=False)`` vs ``in_place=True`` —
and E2H (edge cuts) or V2H (vertex cuts) must publish the same serialized
partition and the same ``cost_before`` / ``cost_after`` bits on each, and
a PageRank run on the result the same values and makespan.  A guard's
best-so-far restore must give back exactly the partition it snapshotted.
"""

from __future__ import annotations

import json
import os
import random
import tempfile

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.algorithms.registry import get_algorithm
from repro.core.e2h import E2H
from repro.core.tracker import CostTracker
from repro.core.v2h import V2H
from repro.costmodel.library import builtin_cost_model
from repro.graph.digraph import Graph
from repro.integrity.guard import GuardConfig, RefinementGuard
from repro.partition.hybrid import HybridPartition
from repro.partition.serialize import (
    load_partition,
    partition_from_dict,
    partition_to_dict,
    save_partition,
)

SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def inputs(draw):
    """A graph with self-loops and isolated vertices, either direction, and
    an edge cut or a vertex cut of it into 2-64 fragments."""
    n = draw(st.integers(min_value=2, max_value=24))
    vertex = st.integers(min_value=0, max_value=n - 1)
    edges = draw(st.lists(st.tuples(vertex, vertex), min_size=1, max_size=4 * n))
    graph = Graph(n, edges, directed=draw(st.booleans()))
    k = draw(st.integers(min_value=2, max_value=64))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**16)))
    if draw(st.booleans()):
        assignment = [rng.randrange(k) for _ in graph.vertices]
        return HybridPartition.from_vertex_assignment(graph, assignment, k), E2H, rng
    edge_assignment = {edge: rng.randrange(k) for edge in graph.edges()}
    return HybridPartition.from_edge_assignment(graph, edge_assignment, k), V2H, rng


def replayed(partition: HybridPartition, rng: random.Random) -> HybridPartition:
    """``partition``'s contents rebuilt through the per-edge verbs, copies
    and edges in shuffled order, with its masters copied."""
    clone = HybridPartition(partition.graph, partition.num_fragments)
    steps = [(f.fid, v) for f in partition.fragments for v in f.vertices()]
    steps += [(f.fid, edge) for f in partition.fragments for edge in f.edges()]
    rng.shuffle(steps)
    for fid, item in steps:
        if isinstance(item, tuple):
            clone.add_edge_to(fid, item)
        else:
            clone.add_vertex_to(fid, item)
    for v, _hosts in partition.vertex_fragments():
        clone.set_master(v, partition.master(v))
    return clone


def saved_and_loaded(partition: HybridPartition) -> HybridPartition:
    with tempfile.TemporaryDirectory() as workdir:
        path = os.path.join(workdir, "partition.json")
        save_partition(partition, path)
        return load_partition(path, partition.graph)


def serialized(partition: HybridPartition) -> str:
    return json.dumps(partition_to_dict(partition))


def outcome(refiner_cls, partition: HybridPartition, in_place: bool = False):
    """What one refinement of ``partition`` publishes, and a PR run on it."""
    refiner = refiner_cls(builtin_cost_model("pr"))
    refined = refiner.refine(partition, in_place=in_place)
    stats = refiner.last_stats
    run = get_algorithm("pr").run(refined)
    return (
        serialized(refined),
        stats.cost_before.hex(),
        stats.cost_after.hex(),
        run.values,
        run.makespan.hex(),
    )


@given(inputs())
@SETTINGS
def test_refinement_ignores_how_the_partition_was_built(case):
    partition, refiner_cls, rng = case
    ways = {
        "per-edge replay": replayed(partition, rng),
        "copy": partition.copy(),
        "save/load": saved_and_loaded(partition),
    }
    for name, other in ways.items():
        assert serialized(other) == serialized(partition), name
    want = outcome(refiner_cls, partition)
    for name, other in ways.items():
        assert outcome(refiner_cls, other) == want, name
    assert outcome(refiner_cls, partition, in_place=True) == want


@given(inputs())
@SETTINGS
def test_a_guard_restore_gives_back_the_snapshot(case):
    partition, refiner_cls, _rng = case
    snapshot = serialized(partition)
    loaded = partition_from_dict(json.loads(snapshot), partition.graph)
    # The snapshot is the best seen; the refined state reads as worse.
    costs = iter([0.0, 1.0])
    guard = RefinementGuard(partition, GuardConfig(), cost_fn=lambda: next(costs))
    model = builtin_cost_model("pr")
    tracker = CostTracker(partition, model)
    refiner_cls(model).refine(partition, in_place=True)
    tracker.comp_costs()
    guard.finish(early_stopped=True)
    assert serialized(partition) == snapshot
    # A tracker that heard the restore reprices to what a cold one sums.
    cold = CostTracker(loaded, model)
    assert tracker.comp_costs() == pytest.approx(cold.comp_costs(), rel=1e-12, abs=1e-18)
    assert tracker.comm_costs() == pytest.approx(cold.comm_costs(), rel=1e-12, abs=1e-18)
    tracker.detach()
    cold.detach()
    assert outcome(refiner_cls, partition) == outcome(refiner_cls, loaded)
