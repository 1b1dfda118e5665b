"""The table-backed ``Graph`` equals the set-of-tuples one (DESIGN §16).

``Graph`` keeps sorted packed-key tables and folds a pending log into them on
the next array read; the implementation it replaced — a ``set`` of tuples
re-sorted into arrays and stable-argsorted into CSRs after every batch — is
frozen in ``tests/oracles/set_graph.py``.  Both take the same constructor
input and the same random interleaving of ``add_edge`` / ``remove_edge`` /
``add_vertex`` (an edge added and removed, or removed and re-added, inside one
pending window included) and after **every** step must agree on every read:
the canonical arrays, every adjacency slice *as an ordered array with its
dtype*, degrees, ``E_v`` and its order, membership, version, digest, equality,
hash, and what a pickle round trip carries over.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.graph.digraph import Graph

from tests.oracles.set_graph import SetGraph


def same_array(got: np.ndarray, want: np.ndarray, what: str) -> None:
    assert got.dtype == want.dtype, f"{what}: dtype {got.dtype} != {want.dtype}"
    assert got.shape == want.shape and got.tolist() == want.tolist(), what


def assert_same_reads(graph: Graph, oracle: SetGraph, probes=()) -> None:
    n = oracle.num_vertices
    assert (graph.num_vertices, graph.num_edges) == (n, oracle.num_edges)
    assert graph.version == oracle.version
    assert graph.directed == oracle.directed and graph.vertices == oracle.vertices
    same_array(graph.edge_array(), oracle.edge_array(), "edge_array")
    edges = list(oracle.edges())
    assert list(graph.edges()) == edges
    same_array(graph.out_degrees(), oracle.out_degrees(), "out_degrees")
    same_array(graph.in_degrees(), oracle.in_degrees(), "in_degrees")
    for v in range(n):
        for read in ("out_neighbors", "in_neighbors"):
            got = getattr(graph, read)(v)
            same_array(got, getattr(oracle, read)(v), f"{read}({v})")
            assert got.flags.c_contiguous
        for read in ("out_degree", "in_degree", "degree", "incident_edge_count"):
            assert getattr(graph, read)(v) == getattr(oracle, read)(v), (read, v)
        assert list(graph.incident_edges(v)) == list(oracle.incident_edges(v))
    for u, v in edges:
        assert graph.has_edge(u, v)
    for u, v in probes:
        assert graph.has_edge(u, v) == oracle.has_edge(u, v), (u, v)
        if graph.directed or u <= v:
            assert graph.contains_edges(edges + [(u, v)]) == oracle.contains_edges(
                edges + [(u, v)]
            )
    assert graph.contains_edges(edges) and graph.contains_edges([])
    assert graph.digest() == oracle.digest()
    assert hash(graph) == hash(oracle)


def out_of_range_probes(n: int):
    """Ids that are absent, negative, past ``n``, or alias a key mod 2**32."""
    wide = 1 << 32
    return [(n, 0), (0, n), (-1, 0), (0, -1), (wide, 0), (0, wide), (wide + 1, 1),
            (1, wide + 1), (0, wide + n), (wide * wide, 0)] + [
        (u, v + wide) for u in range(min(n, 3)) for v in range(min(n, 3))
    ]


@st.composite
def histories(draw):
    n = draw(st.integers(min_value=0, max_value=9))
    directed = draw(st.booleans())
    spare = 3  # isolated tail: ids the constructor's edges never name
    if n:
        vertex = st.integers(min_value=0, max_value=n - 1)
        edges = draw(st.lists(st.tuples(vertex, vertex), max_size=3 * n))
        edges += [(w, u) for u, w in edges if draw(st.booleans())]  # antiparallel
        edges += [edge for edge in edges if draw(st.booleans())]  # duplicates
    else:
        edges = []
    raw = st.integers(min_value=0, max_value=2**16)
    steps = draw(st.lists(st.tuples(st.integers(0, 9), raw, raw), max_size=40))
    return n + (spare if draw(st.booleans()) else 0), directed, edges, steps


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(histories())
def test_every_read_matches_the_frozen_graph_after_every_write(history):
    n, directed, edges, steps = history
    graph, oracle = Graph(n, edges, directed=directed), SetGraph(n, edges, directed=directed)
    assert_same_reads(graph, oracle, out_of_range_probes(n))
    last = None
    for kind, a, b in steps:
        size = oracle.num_vertices
        if kind == 0 or size == 0:
            assert graph.add_vertex() == oracle.add_vertex()
        else:
            u, v = a % size, b % size
            verb = "add_edge" if kind % 2 else "remove_edge"
            present = list(oracle.edges())
            if kind == 1 and last is not None:
                u, v = last  # undo the previous write inside the same window
                verb = "remove_edge" if oracle.has_edge(u, v) else "add_edge"
            elif verb == "remove_edge" and present and b % 4:
                u, v = present[a % len(present)]  # mostly remove what is there
            assert getattr(graph, verb)(u, v) == getattr(oracle, verb)(u, v)
            last = (u, v)
        # The scalar reads answer while the log is pending ...
        assert graph.num_edges == oracle.num_edges and graph.version == oracle.version
        if last is not None:
            assert graph.has_edge(*last) == oracle.has_edge(*last)
            assert graph.has_edge(*last[::-1]) == oracle.has_edge(*last[::-1])
        # ... and a read may or may not come between two writes.
        if kind >= 6:
            assert_same_reads(graph, oracle, [(a % (size + 2), b % (size + 2))])
    if oracle.num_vertices:  # leave a write pending: the log travels with the pickle
        tail = oracle.num_vertices - 1
        graph.edge_array()  # close the window, or the write could cancel an earlier one
        verb = "remove_edge" if oracle.has_edge(tail, 0) else "add_edge"
        assert getattr(graph, verb)(tail, 0) and getattr(oracle, verb)(tail, 0)
        assert graph._pending
    clone = pickle.loads(pickle.dumps(graph))
    assert clone == graph and clone.version == graph.version
    assert_same_reads(clone, oracle, out_of_range_probes(oracle.num_vertices))
    assert_same_reads(graph, oracle, out_of_range_probes(oracle.num_vertices))
    rebuilt = Graph(oracle.num_vertices, list(oracle.edges()), directed=directed)
    assert rebuilt == graph and graph == rebuilt and hash(rebuilt) == hash(graph)
    assert graph != Graph(oracle.num_vertices + 1, list(oracle.edges()), directed=directed)


def test_the_undirected_row_is_two_ascending_halves():
    graph = Graph(6, [(3, 5), (3, 3), (1, 3), (3, 4), (0, 3)], directed=False)
    # (v, w >= v) ascending, then (u <= v, v) ascending; the loop closes both.
    assert graph.out_neighbors(3).tolist() == [3, 4, 5, 0, 1, 3]
    assert graph.in_neighbors(3).tolist() == [3, 4, 5, 0, 1, 3]
    graph.remove_edge(3, 3)
    graph.add_edge(2, 3)
    assert graph.out_neighbors(3).tolist() == [4, 5, 0, 1, 2]


def test_a_pending_window_that_cancels_out_leaves_the_tables_alone():
    graph = Graph(4, [(0, 1), (2, 3)])
    keys = graph._keys
    assert graph.add_edge(1, 2) and graph.remove_edge(1, 2)
    assert graph.remove_edge(0, 1) and graph.add_edge(0, 1)
    assert graph.version == 4 and not graph._pending
    assert graph.edge_array().tolist() == [[0, 1], [2, 3]]
    assert graph._keys is keys  # nothing inserted, nothing deleted


def test_ids_that_do_not_fit_a_key_are_refused_not_wrapped():
    with pytest.raises(ValueError, match="must not exceed"):
        Graph((1 << 31) + 1, [])
    graph = Graph(3, [(1, 1)])
    assert not graph.has_edge(0, (1 << 32) + 1)  # would alias (1, 1)
    assert not graph.contains_edges([(0, (1 << 32) + 1)])
    with pytest.raises(ValueError, match="out of range"):
        graph.add_edge(0, (1 << 32) + 1)
    for wide in (1 << 32, 1 << 70):
        with pytest.raises(ValueError, match="out of range"):
            Graph(3, [(0, wide)])
    with pytest.raises(ValueError, match="pairs"):
        Graph(3, [(0, 1, 2)])
