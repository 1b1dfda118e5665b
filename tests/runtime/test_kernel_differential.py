"""Differential suite: vectorized kernels vs. the scalar reference loops.

Every algorithm runs as an array kernel; the scalar loop it replaced is
frozen in ``tests/oracles/scalar_runs.py``.  The two must agree *bit for
bit*: identical ``AlgorithmResult.values``, identical makespans, and
identical :class:`RunProfile` records — fault-free, under a
:class:`FaultPlan` (a crash and a straggler), and with checkpointing enabled (checkpoint byte
counts are pickle sizes of the snapshot state, so even the snapshot
representations must match).

The grid covers all five algorithms x three graph families x
{directed, undirected} x {fault-free, faults+checkpoints, checkpoints
only} on both an edge-cut and a vertex-cut partition.

A second group property-tests :class:`FragmentPlan` routing tables
against brute-force recomputation from the partition, including after
mutations (the plan must invalidate and rebuild, never serve stale
tables).
"""

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from repro.algorithms.registry import get_algorithm
from repro.graph.digraph import Graph
from repro.graph.generators import chung_lu_power_law, road_grid, small_world
from repro.partition.hybrid import HybridPartition
from repro.runtime.faults import CrashFault, FaultPlan, StragglerFault
from repro.runtime.plan import (
    DUMMY,
    ECUT,
    VCUT,
    FragmentPlan,
    plan_for,
    plan_stats,
)
from tests.oracles import scalar_runs

ALGORITHMS = ("pr", "wcc", "sssp", "tc", "cn")

FAULT_PLAN = FaultPlan(
    crashes=(CrashFault(worker=1, superstep=1),),
    stragglers=(StragglerFault(worker=2, factor=2.0),),
)

#: runtime configs: fault-free, faulty + checkpointed, checkpoint-only
CONFIGS = {
    "clean": {},
    "faulty": {"faults": FAULT_PLAN, "checkpoint_interval": 2},
    "checkpointed": {"checkpoint_interval": 2},
}


def _as_directed(graph):
    return Graph(graph.num_vertices, list(graph.edges()), directed=True)


def _families(directed):
    grid = road_grid(8, 8, seed=3)
    sw = small_world(60, 4, 0.2, seed=5)
    return {
        "powerlaw": chung_lu_power_law(
            90, 5.0, exponent=2.1, directed=directed, seed=7
        ),
        "grid": _as_directed(grid) if directed else grid,
        "smallworld": _as_directed(sw) if directed else sw,
    }


def _edge_cut(graph, n=4, seed=0):
    rng = np.random.default_rng(seed)
    assignment = rng.integers(0, n, size=graph.num_vertices)
    return HybridPartition.from_vertex_assignment(graph, assignment.tolist(), n)


def _vertex_cut(graph, n=4, seed=0):
    rng = np.random.default_rng(seed)
    assignment = {e: int(rng.integers(0, n)) for e in graph.edges()}
    return HybridPartition.from_edge_assignment(graph, assignment, n)


@pytest.mark.parametrize("config_name", sorted(CONFIGS))
@pytest.mark.parametrize("directed", [True, False], ids=["directed", "undirected"])
@pytest.mark.parametrize("family", ["powerlaw", "grid", "smallworld"])
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_kernel_matches_scalar(algorithm, family, directed, config_name):
    graph = _families(directed)[family]
    config = CONFIGS[config_name]
    alg = get_algorithm(algorithm)
    for partition in (_edge_cut(graph), _vertex_cut(graph)):
        scalar = scalar_runs.run(algorithm, partition, **config)
        kernel = alg.run(partition, **config)
        assert scalar.values == kernel.values
        assert scalar.makespan == kernel.makespan
        assert scalar.profile.to_dict() == kernel.profile.to_dict()


def test_plan_generation_counter_invalidation():
    """Plan reuse is generation-keyed; refiners pay no listener churn."""
    graph = _families(True)["powerlaw"]
    partition = _edge_cut(graph)
    listeners_before = len(partition._listeners)
    gen = partition.generation
    plan = plan_for(partition)
    assert plan_for(partition) is plan
    # plan_for registers no mutation listeners: validity is checked by
    # comparing generation counters instead.
    assert len(partition._listeners) == listeners_before
    assert plan.valid

    v, target = next(
        (u, fid)
        for u in partition.fragments[0].vertices()
        for fid in range(partition.num_fragments)
        if fid not in partition.placement(u)
    )
    assert partition.add_vertex_to(target, v)
    assert partition.generation > gen
    assert not plan.valid
    # Forcing valid=True cannot resurrect a plan from an older generation.
    plan.valid = True
    assert not plan.valid
    rebuilt = plan_for(partition)
    assert rebuilt is not plan
    assert rebuilt.valid


def test_wall_time_recorded_on_simulated_backend():
    """wall_time_s is measured on every backend, serialized on none."""
    graph = _families(True)["powerlaw"]
    partition = _edge_cut(graph)
    profile = get_algorithm("pr").run(partition).profile
    assert profile.wall_time_s > 0.0
    assert profile.wall_time_s == sum(r.wall_time_s for r in profile.supersteps)
    payload = profile.to_dict()
    assert "wall_time_s" not in payload
    assert all("wall_time_s" not in s for s in payload["supersteps"])


# ----------------------------------------------------------------------
# FragmentPlan routing tables vs. brute force, including after mutations
# ----------------------------------------------------------------------
SETTINGS = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

_ROLE_OF = {ECUT: "e-cut", VCUT: "v-cut", DUMMY: "dummy"}


@st.composite
def partition_cases(draw):
    n = draw(st.integers(min_value=2, max_value=10))
    directed = draw(st.booleans())
    edges = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                lambda e: e[0] != e[1]
            ),
            max_size=3 * n,
        )
    )
    graph = Graph(n, edges, directed=directed)
    k = draw(st.integers(min_value=1, max_value=4))
    if draw(st.booleans()):
        assignment = [draw(st.integers(0, k - 1)) for _ in range(n)]
        partition = HybridPartition.from_vertex_assignment(graph, assignment, k)
    else:
        edge_assignment = {e: draw(st.integers(0, k - 1)) for e in graph.edges()}
        partition = HybridPartition.from_edge_assignment(graph, edge_assignment, k)
    return draw(st.just(partition))


def _check_routing_tables(plan: FragmentPlan, partition: HybridPartition):
    """Brute-force every routing table against the partition's own answers."""
    placed = dict(partition.vertex_fragments())
    for v in range(partition.graph.num_vertices):
        hosts = placed.get(v)
        if hosts is None:
            assert plan.master_of[v] == -1
            assert plan.rep_count[v] == 0
            assert not plan.border_mask[v]
            assert plan.place_indptr[v] == plan.place_indptr[v + 1]
            continue
        assert plan.master_of[v] == partition.master(v)
        assert plan.rep_count[v] == len(hosts)
        assert bool(plan.border_mask[v]) == partition.is_border(v)
        row = plan.place_fids[plan.place_indptr[v] : plan.place_indptr[v + 1]]
        assert row.tolist() == sorted(partition.placement(v))
        home = partition.designated_home(v)
        assert plan.home_of()[v] == (-1 if home is None else home)
    for fragment in partition.fragments:
        fid = fragment.fid
        verts = plan.verts(fid)
        assert verts.tolist() == sorted(fragment.vertices())
        slots = plan.slot_of(fid)
        for slot, v in enumerate(verts.tolist()):
            assert slots[v] == slot
        roles = plan.roles(fid)
        for slot, v in enumerate(verts.tolist()):
            assert _ROLE_OF[int(roles[slot])] == partition.role(v, fid).value
        assert plan.edge_list(fid) == sorted(fragment.edges())


@given(partition_cases())
@SETTINGS
def test_plan_routing_tables_match_partition(partition):
    _check_routing_tables(plan_for(partition), partition)


@given(partition_cases(), st.data())
@SETTINGS
def test_plan_invalidates_and_rebuilds_after_mutations(partition, data):
    plan = plan_for(partition)
    _check_routing_tables(plan, partition)

    n = partition.graph.num_vertices
    k = partition.num_fragments
    mutated = False
    for _ in range(data.draw(st.integers(1, 4))):
        v = data.draw(st.integers(0, n - 1))
        hosts = sorted(partition.placement(v))
        kind = data.draw(st.sampled_from(["add", "master", "remove"]))
        if kind == "add":
            fid = data.draw(st.integers(0, k - 1))
            mutated |= partition.add_vertex_to(fid, v)
        elif kind == "master" and hosts:
            target = data.draw(st.sampled_from(hosts))
            mutated |= partition.master(v) != target
            partition.set_master(v, target)
        elif kind == "remove" and len(hosts) > 1:
            doomed = data.draw(st.sampled_from(hosts))
            # Only edge-free, non-master copies may be dropped.
            if (
                doomed != partition.master(v)
                and partition.fragments[doomed].incident_count(v) == 0
            ):
                partition.remove_vertex_from(doomed, v)
                mutated = True

    if mutated:
        assert not plan.valid, "mutation did not invalidate the cached plan"
    before = plan_stats().snapshot()
    rebuilt = plan_for(partition)
    if mutated:
        # A stale plan is brought current one of three ways: a net-empty
        # journal revalidates the same object, a small dirty region is
        # delta-patched into a fresh plan, and anything else recompiles
        # from scratch.
        after = plan_stats().snapshot()
        assert sum(after) == sum(before) + 1
        if after[2] > before[2]:  # revalidated: same object, still current
            assert rebuilt is plan
        else:  # patched or recompiled: a new plan replaces the stale one
            assert rebuilt is not plan
        assert rebuilt.valid
    _check_routing_tables(rebuilt, partition)
    # The rebuilt plan is cached until the next mutation.
    assert plan_for(partition) is rebuilt
