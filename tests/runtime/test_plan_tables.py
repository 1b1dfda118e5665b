"""Differential test: array-derived plan tables == the scalar builders.

``FragmentPlan`` derives its routing arrays, ``home_of``, ``roles`` and
edge ownership from flat arrays (bincounts, one packed-key sort).  The
builders it replaced — one ``HybridPartition`` call per vertex, copy or
edge — are frozen in ``tests/oracles/plan_tables.py``; every table must
equal theirs in value, dtype and order, on fresh compiles and on plans
brought current by ``plan_for``'s patch.
"""

from unittest import mock

import numpy as np
import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings

from repro.core.incremental import MutationBatch, apply_mutations
from repro.graph.digraph import Graph
from repro.partition.hybrid import HybridPartition
from repro.runtime import plan as plan_module
from repro.runtime.plan import FragmentPlan, plan_for
from tests.oracles import plan_tables as oracle

SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def partitions(draw):
    """Graphs with self-loops and isolated vertices, v- and e-assignment builds."""
    n = draw(st.integers(min_value=2, max_value=14))
    directed = draw(st.booleans())
    # Endpoints stay below ``hi`` so the tail of the id range is isolated.
    hi = draw(st.integers(min_value=1, max_value=n))
    edges = draw(
        st.lists(
            st.tuples(st.integers(0, hi - 1), st.integers(0, hi - 1)),
            max_size=3 * n,
        )
    )
    graph = Graph(n, edges, directed=directed)
    k = draw(st.sampled_from([2, 3, 4, 7, 64]))
    fids = st.integers(0, k - 1)
    if draw(st.booleans()):
        assignment = [draw(fids) for _ in range(n)]
        return HybridPartition.from_vertex_assignment(graph, assignment, k)
    edge_assignment = {e: draw(fids) for e in graph.edges()}
    return HybridPartition.from_edge_assignment(graph, edge_assignment, k)


def _same(got, want, what):
    assert np.array_equal(got, want), f"{what} diverges from the scalar builder"
    assert got.dtype == want.dtype, f"{what}: dtype {got.dtype} != {want.dtype}"


def assert_tables_match_oracle(plan: FragmentPlan, partition: HybridPartition):
    for name, want in oracle.routing_tables(partition).items():
        _same(getattr(plan, name), want, name)
    _same(plan.home_of(), oracle.home_of(partition), "home_of")
    for fid in range(partition.num_fragments):
        _same(plan.roles(fid), oracle.roles(partition, fid), f"roles({fid})")
    for target_aware in (False, True):
        want = oracle.owned_edges(partition, target_aware)
        for fid in range(partition.num_fragments):
            got = plan.owned_edges(fid, target_aware)
            for side, g, w in zip(("src", "dst"), got, want[fid]):
                _same(g, w, f"owned_edges({fid}, {target_aware}).{side}")


def _mutate(partition: HybridPartition, data) -> None:
    """One random coherence-preserving change to the partition (or graph)."""
    graph = partition.graph
    n, k = graph.num_vertices, partition.num_fragments
    kind = data.draw(st.sampled_from(["add_edge", "remove_edge", "master", "batch"]))
    edges = sorted(graph.edges())
    if kind == "add_edge" and edges:
        partition.add_edge_to(
            data.draw(st.integers(0, k - 1)), data.draw(st.sampled_from(edges))
        )
    elif kind == "remove_edge" and edges:
        # Only replicated copies go, so every edge stays covered and a
        # later ``apply_mutations`` still sees a valid partition.
        edge = data.draw(st.sampled_from(edges))
        holders = [f.fid for f in partition.fragments if f.has_edge(edge)]
        if len(holders) > 1:
            partition.remove_edge_from(data.draw(st.sampled_from(holders)), edge)
    elif kind == "master":
        v = data.draw(st.integers(0, n - 1))
        hosts = sorted(partition.placement(v))
        if hosts:
            partition.set_master(v, data.draw(st.sampled_from(hosts)))
    elif kind == "batch":
        lines = []
        for _ in range(data.draw(st.integers(1, 5))):
            u = data.draw(st.integers(0, n))
            v = data.draw(st.integers(0, n))
            if u != v:
                lines.append(f"{data.draw(st.sampled_from('+-'))} {u} {v}")
        apply_mutations(partition, MutationBatch.parse("\n".join(lines) or f"{n}"))


@given(partitions())
@SETTINGS
def test_fresh_compile_matches_scalar_builders(partition):
    assert_tables_match_oracle(FragmentPlan(partition), partition)


@given(partitions(), st.data())
@SETTINGS
def test_patched_plan_matches_scalar_builders(partition, data):
    """Tables materialised before a delta stay right after the patch."""
    plan = plan_for(partition)
    plan.home_of()
    for fid in range(partition.num_fragments):
        plan.roles(fid)
        plan.owned_edges(fid, True)
    for _ in range(data.draw(st.integers(1, 3))):
        for _ in range(data.draw(st.integers(1, 4))):
            _mutate(partition, data)
        with mock.patch.object(plan_module, "PATCH_FRACTION", 1.0):
            plan = plan_for(partition, incremental=True)
        assert plan.valid
        assert_tables_match_oracle(plan, partition)
        assert_tables_match_oracle(FragmentPlan(partition), partition)
