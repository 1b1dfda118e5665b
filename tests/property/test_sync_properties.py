"""Property-based tests for master/mirror synchronization.

The plan's ``SyncRoute`` is the exchange every partition-transparent
algorithm leans on; if it ever delivered different values to different
copies of a vertex — or different values across reruns — partition
transparency would silently break.  For random hybrid partitions and both
reductions we check both invariants directly, plus agreement with a
sequential reference combine and, value for value and makespan for
makespan, with the two routes it replaced: the per-superstep array sync
(``tests/oracles/master_sync.py``) and the per-message dict exchange
(``tests/oracles/scalar_runs.sync_by_master``).
"""

import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings

from repro.graph.digraph import Graph
from repro.partition.hybrid import HybridPartition
from repro.runtime.bsp import Cluster
from repro.runtime.plan import plan_for
from tests.oracles.master_sync import sync_by_master_arrays
from tests.oracles.scalar_runs import sync_by_master
from tests.runtime.test_sync import COMBINE, as_arrays, as_dicts, route_sync

SETTINGS = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def random_hybrid_partitions(draw):
    """A random graph, a random hybrid partition of it, and a reduction.

    Same recipe as the algorithm-transparency suite: start from a random
    edge-cut and duplicate a few edges into extra fragments for genuine
    hybrid structure.
    """
    n = draw(st.integers(min_value=2, max_value=12))
    edges = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                lambda e: e[0] != e[1]
            ),
            min_size=1,
            max_size=3 * n,
        )
    )
    graph = Graph(n, edges, directed=draw(st.booleans()))
    k = draw(st.integers(min_value=2, max_value=3))
    assignment = {e: draw(st.integers(0, k - 1)) for e in graph.edges()}
    partition = HybridPartition.from_edge_assignment(graph, assignment, k)
    all_edges = list(graph.edges())
    for _ in range(draw(st.integers(0, 5))):
        edge = all_edges[draw(st.integers(0, len(all_edges) - 1))]
        partition.add_edge_to(draw(st.integers(0, k - 1)), edge)
    return graph, partition, draw(st.sampled_from(sorted(COMBINE)))


def partials_for(partition):
    """Distinct per-copy partials: value identifies the (fid, vertex) copy."""
    return {
        fragment.fid: {v: float(fragment.fid * 1000 + v) for v in fragment.vertices()}
        for fragment in partition.fragments
    }


def run_sync(partition, reduce):
    plan = plan_for(partition)
    partials = as_arrays(partials_for(partition))
    cluster = Cluster(partition)
    out = as_dicts(route_sync(cluster, plan, partials, reduce))
    frozen = Cluster(partition)
    assert out == as_dicts(sync_by_master_arrays(frozen, plan, partials, reduce))
    makespan = cluster.finish().makespan
    assert makespan == frozen.finish().makespan
    return out, makespan


@given(random_hybrid_partitions())
@SETTINGS
def test_every_copy_sees_the_identical_combined_value(case):
    _graph, partition, reduce = case
    out, _makespan = run_sync(partition, reduce)
    for v, hosts in partition.vertex_fragments():
        values = [out[fid][v] for fid in hosts]
        assert len(set(values)) == 1, f"copies of {v} disagree: {values}"


@given(random_hybrid_partitions())
@SETTINGS
def test_combined_value_matches_sequential_reference(case):
    _graph, partition, reduce = case
    partials = partials_for(partition)
    out, makespan = run_sync(partition, reduce)
    sequential = {"sum": sum, "min": min}[reduce]
    for v, hosts in partition.vertex_fragments():
        expected = sequential(partials[fid][v] for fid in hosts)
        assert out[min(hosts)][v] == expected
    reference = Cluster(partition)
    assert out == sync_by_master(reference, partials, combine=COMBINE[reduce])
    assert makespan == reference.finish().makespan


@given(random_hybrid_partitions())
@SETTINGS
def test_sync_is_deterministic_across_repeated_runs(case):
    _graph, partition, reduce = case
    first_out, first_makespan = run_sync(partition, reduce)
    second_out, second_makespan = run_sync(partition, reduce)
    assert first_out == second_out
    assert first_makespan == second_makespan
