"""Property-based tests for the guarded refinement pipeline.

Random graphs and random initial partitions: the guard must (1) never
change the output when idle, at any snapshot cadence, and (2) terminate
within budgets with a valid best-so-far partition.
"""

import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings

from repro.core.e2h import E2H
from repro.costmodel.library import builtin_cost_model
from repro.graph.digraph import Graph
from repro.integrity.guard import GuardConfig
from repro.partition.hybrid import HybridPartition
from repro.partition.serialize import partition_to_dict
from repro.partition.validation import check_partition

SETTINGS = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def partitioned_graphs(draw):
    n = draw(st.integers(min_value=3, max_value=14))
    edges = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                lambda e: e[0] != e[1]
            ),
            min_size=1,
            max_size=4 * n,
        )
    )
    graph = Graph(n, edges, directed=draw(st.booleans()))
    k = draw(st.integers(min_value=2, max_value=3))
    assignment = [draw(st.integers(0, k - 1)) for _ in range(n)]
    partition = HybridPartition.from_vertex_assignment(graph, assignment, k)
    return graph, partition


@given(
    partitioned_graphs(),
    st.sampled_from([1, 3, 17]),
    st.sampled_from(["cn", "pr", "wcc"]),
)
@SETTINGS
def test_idle_guard_is_invisible(case, interval, alg):
    """Any snapshot cadence: guarded output equals unguarded output."""
    _graph, partition = case
    model = builtin_cost_model(alg)
    plain = E2H(model).refine(partition)
    guarded = E2H(
        model, guard_config=GuardConfig(snapshot_interval=interval)
    ).refine(partition)
    assert partition_to_dict(guarded) == partition_to_dict(plain)


@given(
    partitioned_graphs(),
    st.integers(min_value=1, max_value=6),
)
@SETTINGS
def test_step_budget_terminates_with_valid_output(case, max_steps):
    _graph, partition = case
    refiner = E2H(
        builtin_cost_model("pr"),
        guard_config=GuardConfig(snapshot_interval=1, max_steps=max_steps),
    )
    refined = refiner.refine(partition)
    check_partition(refined)
    stats = refiner.last_stats.guard
    assert stats.steps <= max_steps
