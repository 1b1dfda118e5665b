"""The bulk loader equals per-edge construction (DESIGN §8.2).

``HybridPartition._bulk_load`` replaced the edge-by-edge construction
sites.  Their frozen per-edge bodies live in ``tests/oracles``; here random
graphs go through both and every index must hold the same contents.  The
orders need not match — the oracles fill their indexes in insertion
order — so what is compared in order is what is read in order: the
canonical vertex walk, the serialized partition and the refined costs.
"""

from __future__ import annotations

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import E2H
from repro.core.operations import emigrate
from repro.core.tracker import CostTracker
from repro.costmodel.library import builtin_cost_model
from repro.graph.digraph import Graph
from repro.partition.hybrid import HybridPartition, NodeRole
from repro.partition.serialize import (
    partition_from_dict,
    partition_to_dict,
    restore_partition_state,
)
from repro.partition.validation import check_partition

from tests.oracles import per_edge_builders as oracle

SETTINGS = settings(max_examples=60, deadline=None)


@st.composite
def graphs(draw):
    """Small graphs with self-loops and isolated vertices, either direction."""
    n = draw(st.integers(min_value=1, max_value=36))
    vertex = st.integers(min_value=0, max_value=n - 1)
    edges = draw(st.lists(st.tuples(vertex, vertex), max_size=3 * n))
    return Graph(n, edges, directed=draw(st.booleans()))


#: 2-64 fragments: past 8 a small-int set no longer iterates in sorted
#: order, so a loader that only *happened* to match would be caught.
fragment_counts = st.integers(min_value=2, max_value=64)
seeds = st.integers(min_value=0, max_value=2**16)


def assert_indistinguishable(got: HybridPartition, want: HybridPartition) -> None:
    """Same contents in every index, and the same canonical orders."""
    assert list(got.vertex_fragments()) == list(want.vertex_fragments())
    assert got._placement == want._placement
    assert got._masters == want._masters
    fresh = HybridPartition(want.graph, 1)
    for v in want.graph.vertices:
        assert got.full_fragments(v) == want.full_fragments(v)
        assert got._graph_facts[v] == fresh._facts(v)
    for mine, theirs in zip(got.fragments, want.fragments):
        assert mine._incident == theirs._incident
        assert mine._edges == theirs._edges
        for v in theirs.vertices():
            assert mine.local_in_degree(v) == theirs.local_in_degree(v)
            assert mine.local_out_degree(v) == theirs.local_out_degree(v)
    assert json.dumps(partition_to_dict(got)) == json.dumps(partition_to_dict(want))


def refined_costs(partition: HybridPartition):
    refiner = E2H(builtin_cost_model("pr"))
    refiner.refine(partition, in_place=True)
    stats = refiner.last_stats
    return stats.cost_before.hex(), stats.cost_after.hex()


def vertex_assignment(graph: Graph, n: int, seed: int):
    rng = random.Random(seed)
    return [rng.randrange(n) for _ in graph.vertices]


def edge_assignment(graph: Graph, n: int, seed: int):
    rng = random.Random(seed)
    edges = list(graph.edges())
    rng.shuffle(edges)
    return {edge: rng.randrange(n) for edge in edges}


def churned(graph: Graph, n: int, seed: int) -> HybridPartition:
    """A partition whose index orders no longer look freshly built."""
    partition = HybridPartition.from_vertex_assignment(
        graph, vertex_assignment(graph, n, seed), n
    )
    rng = random.Random(seed)
    for v in rng.sample(range(graph.num_vertices), graph.num_vertices // 2):
        src, dst = partition.master(v), rng.randrange(n)
        if src != dst and partition.role(v, src) is NodeRole.ECUT:
            emigrate(partition, v, src, dst)
    return partition


@SETTINGS
@given(graphs(), fragment_counts, seeds)
def test_from_vertex_assignment(graph, n, seed):
    assignment = vertex_assignment(graph, n, seed)
    got = HybridPartition.from_vertex_assignment(graph, assignment, n)
    want = oracle.from_vertex_assignment(graph, assignment, n)
    assert_indistinguishable(got, want)
    check_partition(got)
    assert got.generation == 0 and got.mutations_since(0) == set()
    assert refined_costs(got) == refined_costs(want)


@SETTINGS
@given(graphs(), fragment_counts, seeds)
def test_from_edge_assignment(graph, n, seed):
    assignment = edge_assignment(graph, n, seed)
    got = HybridPartition.from_edge_assignment(graph, assignment, n)
    want = oracle.from_edge_assignment(graph, assignment, n)
    assert_indistinguishable(got, want)
    check_partition(got)
    assert refined_costs(got) == refined_costs(want)


@SETTINGS
@given(graphs(), fragment_counts, seeds)
def test_copy_equals_per_edge_reinsertion(graph, n, seed):
    source = churned(graph, n, seed)
    got, want = source.copy(), oracle.copy(source)
    assert_indistinguishable(got, want)
    check_partition(got)
    assert refined_costs(got) == refined_costs(want)


@SETTINGS
@given(graphs(), fragment_counts, seeds)
def test_serialize_round_trip(graph, n, seed):
    payload = partition_to_dict(churned(graph, n, seed))
    got = partition_from_dict(payload, graph)
    want = oracle.partition_from_dict(payload, graph)
    assert_indistinguishable(got, want)
    check_partition(got)
    assert refined_costs(got) == refined_costs(want)


@SETTINGS
@given(graphs(), fragment_counts, seeds)
def test_restore_in_place_with_a_tracker_attached(graph, n, seed):
    """Listeners hear of every restored and every stale vertex, each once,
    and the tracker reprices them to the oracle's sums."""
    snapshot = partition_to_dict(
        HybridPartition.from_vertex_assignment(
            graph, vertex_assignment(graph, n, seed + 1), n
        )
    )
    outcomes = []
    for restore in (restore_partition_state, oracle.restore_partition_state):
        partition = churned(graph, n, seed)
        before = {v for v, _hosts in partition.vertex_fragments()}
        tracker = CostTracker(partition, builtin_cost_model("pr"))
        heard = []
        partition.add_listener(heard.append)
        generation = partition.generation
        restore(partition, snapshot)
        after = {v for v, _hosts in partition.vertex_fragments()}
        assert set(heard) == before | after
        if restore is restore_partition_state:
            assert len(heard) == len(set(heard))
        assert partition.mutations_since(generation) == before | after
        outcomes.append(
            (
                sorted(set(heard)),
                [c.hex() for c in tracker.comp_costs()],
                [c.hex() for c in tracker.comm_costs()],
                partition,
            )
        )
    (heard, comp, comm, got), (want_heard, want_comp, want_comm, want) = outcomes
    assert heard == want_heard
    assert (comp, comm) == (want_comp, want_comm)
    assert_indistinguishable(got, want)


def test_edge_assignment_masters_the_first_seen_fragment():
    """Not the lowest-numbered host: every golden rests on first-seen."""
    graph = Graph(3, [(0, 1), (1, 2)], directed=True)
    partition = HybridPartition.from_edge_assignment(
        graph, {(1, 2): 3, (0, 1): 0}, 4
    )
    assert partition.placement(1) == {0, 3}
    assert partition.master(1) == 3
    assert [partition.master(v) for v in (0, 2)] == [0, 3]


def test_payload_master_on_a_non_hosting_fragment_is_rejected():
    graph = Graph(2, [(0, 1)], directed=True)
    payload = partition_to_dict(
        HybridPartition.from_vertex_assignment(graph, [0, 0], 2)
    )
    payload["masters"]["0"] = 1
    with pytest.raises(ValueError, match="fragment 1 holds no copy of vertex 0"):
        partition_from_dict(payload, graph)


def test_payload_edge_missing_from_the_graph_is_rejected():
    graph = Graph(3, [(0, 1)], directed=True)
    payload = partition_to_dict(
        HybridPartition.from_vertex_assignment(graph, [0, 0, 1], 2)
    )
    payload["fragments"][1]["edges"].append([1, 2])
    payload["num_edges"] = graph.num_edges
    with pytest.raises(ValueError, match="does not exist in the graph"):
        partition_from_dict(payload, graph)
