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

from repro.algorithms.registry import get_algorithm
from repro.core.e2h import E2H
from repro.core.incremental import MutationBatch, apply_mutations
from repro.core.v2h import V2H
from repro.costmodel.library import builtin_cost_model
from repro.graph.digraph import Graph
from repro.partition.hybrid import HybridPartition
from repro.runtime import plan as plan_module
from repro.runtime.plan import FragmentPlan, plan_for, plan_stats
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


# ----------------------------------------------------------------------
# Patches across a mutation batch, and the slow-but-right fallbacks
# ----------------------------------------------------------------------
def _lazy_tables(plan: FragmentPlan) -> dict:
    """Every lazy table of ``plan``, keyed by what it is, read in one order."""
    tables = {"home_of": plan.home_of(), "degrees": plan.degrees()}
    for prefix, ns in (("global_in_csr", plan.global_in_csr()), ("query_targets", plan.query_targets())):
        tables.update({f"{prefix}.{k}": a for k, a in vars(ns).items()})
    for fid in range(plan.num_fragments):
        tables[f"verts({fid})"] = plan.verts(fid)
        tables[f"edge_keys({fid})"] = plan.edge_keys(fid)
        tables[f"roles({fid})"] = plan.roles(fid)
        tables[f"cn_local_in_counts({fid})"] = plan.cn_local_in_counts(fid)
        for flag in (False, True):
            for side, a in zip(("src", "dst"), plan.owned_edges(fid, flag)):
                tables[f"owned_edges({fid}, {flag}).{side}"] = a
        tables.update({f"tc_tables({fid}).{k}": a for k, a in vars(plan.tc_tables(fid)).items()})
    return tables


def assert_equals_fresh_compile(plan: FragmentPlan, partition: HybridPartition) -> None:
    fresh = FragmentPlan(partition)
    for name in oracle.routing_tables(partition):
        _same(getattr(plan, name), getattr(fresh, name), name)
    want = _lazy_tables(fresh)
    got = _lazy_tables(plan)
    assert got.keys() == want.keys()
    for name, table in want.items():
        _same(got[name], table, name)
    for fid in range(partition.num_fragments):
        assert plan.edge_list(fid) == fresh.edge_list(fid)


def _two_halves(n: int = 40) -> HybridPartition:
    """A directed cycle cut into two halves: 0..n/2-1 and the rest."""
    graph = Graph(n, [(v, (v + 1) % n) for v in range(n)], directed=True)
    return HybridPartition.from_vertex_assignment(graph, [2 * v // n for v in range(n)], 2)


def _read_all(plan: FragmentPlan) -> None:
    plan.home_of()
    for fid in range(plan.num_fragments):
        plan.edge_arrays(fid)
        plan.roles(fid)


def test_a_graph_mutated_behind_the_partitions_back_recompiles():
    partition = _two_halves()
    _read_all(plan_for(partition))
    # The graph gains an edge no graph_changed reports; then the
    # partition moves, so the cached plan is stale.
    assert partition.graph.add_edge(3, 30)
    partition.add_vertex_to(1, 5)
    before = plan_stats().snapshot()
    plan = plan_for(partition, incremental=True)
    after = plan_stats().snapshot()
    assert after[0] == before[0] + 1, "an unvouched graph version was patched across"
    assert after[1:] == before[1:]
    assert_equals_fresh_compile(plan, partition)


def test_a_reported_batch_is_patched_across_the_version_bump():
    partition = _two_halves()
    _read_all(plan_for(partition))
    version = partition.graph.version
    apply_mutations(partition, MutationBatch.parse("+ 3 30\n- 7 8"))
    assert partition.graph.version != version
    before = plan_stats().snapshot()
    plan = plan_for(partition, incremental=True)
    assert plan_stats().snapshot()[:2] == (before[0], before[1] + 1)
    assert plan.graph_version == partition.graph.version
    assert_equals_fresh_compile(plan, partition)


def test_a_batch_that_grows_the_vertex_set_recompiles():
    partition = _two_halves()
    _read_all(plan_for(partition))
    apply_mutations(partition, MutationBatch.parse("+ 3 40"))
    assert partition.graph.num_vertices == 41
    before = plan_stats().snapshot()
    plan = plan_for(partition, incremental=True)
    after = plan_stats().snapshot()
    assert after[0] == before[0] + 1, "a grown vertex set must re-key every table"
    assert after[1:] == before[1:]
    assert_equals_fresh_compile(plan, partition)


def test_bases_past_the_patch_fraction_are_read_afresh(monkeypatch):
    rebased = []
    rebase = FragmentPlan._rebase_edges

    def spy(plan, fid, base):
        rebased.append(fid)
        return rebase(plan, fid, base)

    monkeypatch.setattr(FragmentPlan, "_rebase_edges", spy)
    # 40 vertices, a patch covers at most 10 of them; vertices 1..18 live
    # on fragment 0 only, 21..38 on fragment 1 only.
    partition = _two_halves()
    _read_all(plan_for(partition))
    stats = plan_stats()

    # One delta of six vertices: both fragments are read off their bases.
    for v in range(2, 8):
        assert partition.add_vertex_to(1, v)
    patched = stats.patched
    plan = plan_for(partition, incremental=True)
    assert stats.patched == patched + 1
    assert_equals_fresh_compile(plan, partition)
    assert sorted(rebased) == [0, 1]

    # Two such deltas with no read in between accumulate twelve dirty
    # vertices: the bases are dropped and the fragments read afresh.
    rebased.clear()
    _read_all(plan)
    for fid, delta in ((0, range(22, 28)), (1, range(8, 14))):
        for v in delta:
            assert partition.add_vertex_to(fid, v)
        plan = plan_for(partition, incremental=True)
    assert stats.patched == patched + 3
    assert_equals_fresh_compile(plan, partition)
    assert rebased == []


@st.composite
def laps(draw):
    """A partition, a refiner and 1-4 mutation batches over its ids (one
    id past the end now and then, which grows the vertex set)."""
    partition = draw(partitions())
    refiner = draw(st.sampled_from([E2H, V2H]))(builtin_cost_model(draw(st.sampled_from(["pr", "wcc"]))))
    n = partition.graph.num_vertices
    batches = []
    for _ in range(draw(st.integers(1, 4))):
        lines = []
        for _ in range(draw(st.integers(1, 6))):
            u, v = draw(st.integers(0, n)), draw(st.integers(0, n))
            lines.append(f"{draw(st.sampled_from('+-'))} {u} {v}")
        batches.append(MutationBatch.parse("\n".join(lines)))
    return partition, refiner, draw(st.sampled_from(["pr", "wcc"])), batches


@given(laps())
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_maintenance_laps_leave_every_table_equal_to_a_fresh_compile(lap):
    """apply_mutations -> plan_for -> refine_incremental -> plan_for -> run,
    lap after lap: the plan patched through it all equals a fresh compile,
    table for table, and so does the run it serves."""
    partition, refiner, name, batches = lap
    algorithm = get_algorithm(name)
    algorithm.run(partition)
    for batch in batches:
        dirty = apply_mutations(partition, batch)
        with mock.patch.object(plan_module, "PATCH_FRACTION", 1.0):
            plan_for(partition, incremental=True)
            partition = refiner.refine_incremental(partition, dirty)
            plan = plan_for(partition, incremental=True)
        got = algorithm.run(partition)
        assert plan_for(partition) is plan
        want = algorithm.run(partition.copy())  # compiles its own plan
        assert got.values == want.values
        assert got.makespan == want.makespan
        assert got.profile.to_dict() == want.profile.to_dict()
        assert_equals_fresh_compile(plan, partition)
