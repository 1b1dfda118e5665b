"""The copy-space kernel contract, property-tested.

Every :data:`~repro.runtime.kernels.KERNELS` row indexes its tables in
the plan's copy space, so one ``compute`` over the whole copy space must
equal the concatenation of per-fragment ``compute`` calls on each
fragment's rows (:meth:`Kernel.rows`, what a shm worker sees) and the
matching slices of the state — in value and in dtype — on edge and
vertex cuts, directed and undirected graphs, with empty fragments.
"""

import hypothesis.strategies as st
import numpy as np
from hypothesis import HealthCheck, given, settings

from repro.graph.digraph import Graph
from repro.partition.hybrid import HybridPartition
from repro.runtime.kernels import KERNELS
from repro.runtime.plan import FragmentPlan

SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def partitions(draw):
    """A small graph (self-loops allowed) cut into up to five fragments,
    of which only ``used`` receive anything."""
    n = draw(st.integers(min_value=1, max_value=12))
    edges = draw(
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=4 * n)
    )
    graph = Graph(n, edges, directed=draw(st.booleans()))
    k = draw(st.integers(min_value=1, max_value=5))
    used = draw(st.integers(min_value=1, max_value=k))
    if draw(st.booleans()):
        assignment = {e: draw(st.integers(0, used - 1)) for e in graph.edges()}
        return HybridPartition.from_edge_assignment(graph, assignment, k)
    assignment = [draw(st.integers(0, used - 1)) for _ in range(n)]
    return HybridPartition.from_vertex_assignment(graph, assignment, k)


def _state(kernel, size, rng):
    """Random declared state: labels, distances (some infinite) or ranks,
    and flags."""
    state = []
    for dtype in kernel.state:
        if dtype is bool:
            state.append(rng.random(size) < 0.5)
        elif dtype == np.int64:
            state.append(rng.integers(0, size + 1, size))
        else:
            state.append(np.where(rng.random(size) < 0.3, np.inf, rng.integers(0, 6, size) / 4))
    return state


def _outputs(kernel, got):
    return got if len(kernel.out) > 1 else (got,)


@given(partitions(), st.sampled_from(sorted(KERNELS)), st.integers(0, 2**32 - 1))
@SETTINGS
def test_one_compute_equals_the_fragments_concatenated(partition, name, seed):
    kernel = KERNELS[name]
    plan = FragmentPlan(partition)
    tables = kernel.tables(plan)
    state = _state(kernel, tables.copies, np.random.default_rng(seed))
    args = {"tc": (plan.key_base, plan.graph.directed), "cn": (2.0,)}.get(name, ())
    whole = _outputs(kernel, kernel.compute(tables, *state, *args))

    cuts = tables.cuts["copies"]
    parts = []
    for fid in range(plan.num_fragments):
        rows = kernel.rows(tables, fid)
        sliced = [s[cuts[fid] : cuts[fid + 1]] for s in state]
        got = _outputs(kernel, kernel.compute(rows, *sliced, *args))
        # what a worker leaves must fit the buffers shm sizes for it
        assert all(out.size <= kernel.size(rows) for out in got)
        parts.append(got)
    assert sum(kernel.size(kernel.rows(tables, f)) for f in range(len(parts))) == (
        kernel.size(tables)
    )
    for i, (want, dtype) in enumerate(zip(whole, kernel.out)):
        joined = np.concatenate([got[i] for got in parts])
        np.testing.assert_array_equal(joined, want)
        assert joined.dtype == want.dtype == np.dtype(dtype)
