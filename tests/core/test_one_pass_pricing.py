"""One-pass pricing equals the per-copy oracle (DESIGN §8.2).

``features.copy_keys`` classifies and describes all copies of a vertex in
one pass; ``role`` / ``cost_bearing`` / ``vertex_features`` read the same
derivation, and ``CostTracker._reprice`` prices off it through the keyed
funnel.  The frozen per-copy route lives in ``tests/oracles``; random
mutation sequences must leave both in agreement, to the bit.
"""

from __future__ import annotations

from collections.abc import Mapping

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import E2H
from repro.core.tracker import CostTracker
from repro.costmodel.features import FEATURE_NAMES, copy_keys, vertex_features
from repro.costmodel.library import builtin_cost_model
from repro.costmodel.model import CostModel
from repro.graph.digraph import Graph
from repro.graph.generators import chung_lu_power_law
from repro.partition.hybrid import HybridPartition, NodeRole

from tests.conftest import make_edge_cut
from tests.oracles import per_copy_pricing as oracle
from tests.oracles.direct_scorer import use_direct_scorer

AVG = 3.5


def outcome(fn, *args):
    """``fn(*args)``, or the ``KeyError`` marker when it raises one."""
    try:
        return fn(*args)
    except KeyError:
        return KeyError


def oracle_copies(partition: HybridPartition, v: int):
    """The per-copy route's answer to ``copy_keys(partition, v, AVG)``:
    one entry per copy, fids ascending."""
    copies = []
    for fid in sorted(partition._placement.get(v, ())):
        role = oracle.role(partition, v, fid)
        features = oracle.vertex_features(partition, v, fid, AVG)
        copies.append(
            (fid, role is not NodeRole.DUMMY, tuple(features[n] for n in FEATURE_NAMES))
        )
    return copies


def assert_agrees_with_oracle(partition: HybridPartition) -> None:
    for v in partition.graph.vertices:
        assert outcome(copy_keys, partition, v, AVG) == outcome(
            oracle_copies, partition, v
        )
        assert partition.designated_home(v) == oracle.designated_home(partition, v)
        for fid in range(partition.num_fragments):
            assert outcome(partition.role, v, fid) is outcome(
                oracle.role, partition, v, fid
            )
            assert outcome(partition.cost_bearing, v, fid) is outcome(
                oracle.cost_bearing, partition, v, fid
            )
            assert outcome(vertex_features, partition, v, fid, AVG) == outcome(
                oracle.vertex_features, partition, v, fid, AVG
            )


def costs(tracker: CostTracker):
    return (
        [c.hex() for c in tracker.comp_costs()],
        [c.hex() for c in tracker.comm_costs()],
    )


def apply(partition: HybridPartition, op) -> None:
    """One step of a random mutation sequence (``op`` is four raw draws)."""
    kind, a, b, c = op
    graph = partition.graph
    fid = b % partition.num_fragments
    edges = sorted(graph.edges())
    if kind == 0 and edges:
        partition.add_edge_to(fid, edges[a % len(edges)])
    elif kind == 1:
        local = sorted(partition.fragments[fid].edges())
        if local:
            partition.remove_edge_from(fid, local[a % len(local)], prune=bool(c % 2))
    elif kind == 2:
        v = a % graph.num_vertices
        hosts = sorted(partition.placement(v))
        if hosts:
            partition.set_master(v, hosts[b % len(hosts)])
    elif kind == 3:
        u, w = a % graph.num_vertices, c % graph.num_vertices
        if graph.has_edge(u, w):
            edge = graph.canonical_edge(u, w)
            for holder in range(partition.num_fragments):
                partition.remove_edge_from(holder, edge)
            graph.remove_edge(u, w)
        else:
            graph.add_edge(u, w)
        partition.graph_changed([u, w])


@st.composite
def scenarios(draw):
    n = draw(st.integers(min_value=2, max_value=14))
    vertex = st.integers(min_value=0, max_value=n - 1)
    edges = draw(st.lists(st.tuples(vertex, vertex), min_size=1, max_size=3 * n))
    graph = Graph(n, edges, directed=draw(st.booleans()))
    fragments = draw(st.integers(min_value=2, max_value=12))
    raw = st.integers(min_value=0, max_value=2**16)
    ops = draw(
        st.lists(st.tuples(st.integers(0, 3), raw, raw, raw), max_size=25)
    )
    return graph, fragments, draw(raw), ops


@settings(max_examples=120, deadline=None)
@given(scenarios())
def test_pass_and_tracker_match_the_per_copy_route(scenario):
    graph, fragments, seed, ops = scenario
    partition = make_edge_cut(graph, fragments, seed=seed)
    model = builtin_cost_model("tc")  # h and g both read I, d_L and M
    tracker = CostTracker(partition, model)
    reference = oracle.PerCopyTracker(partition, model)
    assert_agrees_with_oracle(partition)
    assert costs(tracker) == costs(reference)
    for op in ops:
        apply(partition, op)
        assert_agrees_with_oracle(partition)
        assert costs(tracker) == costs(reference)


def test_a_copy_without_a_master_raises_like_the_per_copy_route():
    partition = make_edge_cut(Graph(3, [(0, 1), (1, 2)]), 2, seed=0)
    del partition._masters[1]
    fid = next(iter(partition.placement(1)))
    with pytest.raises(KeyError):
        oracle.vertex_features(partition, 1, fid, AVG)
    with pytest.raises(KeyError):
        copy_keys(partition, 1, AVG)
    with pytest.raises(KeyError):
        vertex_features(partition, 1, fid, AVG)


class SpyModel(CostModel):
    """A user model overriding the Mapping funnel, as benchmarks and the
    guardrails do."""

    mapping_calls = 0

    def h_value(self, features):
        assert isinstance(features, Mapping)
        self.mapping_calls += 1
        return super().h_value(features)

    def g_value(self, features):
        assert isinstance(features, Mapping)
        self.mapping_calls += 1
        return super().g_value(features)


@pytest.mark.parametrize("cached", [True, False])
def test_an_overriding_model_sees_every_distinct_evaluation(cached, monkeypatch):
    """Keyed callers never bypass ``h_value`` / ``g_value`` overrides: a
    pass under the gain cache reaches them once per memo miss, one under
    the uncached oracle scorer once per rescoring call — each time with
    a Mapping."""
    if not cached:
        use_direct_scorer(monkeypatch)
    base = builtin_cost_model("pr")
    spy = SpyModel(base.name, base.h, base.g, base.gate)
    graph = chung_lu_power_law(150, 5.0, exponent=2.1, directed=True, seed=4)
    refiner = E2H(spy)
    refiner.refine(make_edge_cut(graph, 4, seed=1), in_place=True)
    stats = refiner.last_stats
    assert spy.mapping_calls > 0
    if cached:
        assert spy.mapping_calls == stats.gain_cache.value_misses
    else:
        assert spy.mapping_calls == stats.rescoring_calls
