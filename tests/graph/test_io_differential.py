"""The bulk edge-list parse against the line scanner.

``read_edge_list`` parses a file in ``write_edge_list``'s shape with array
passes and hands every other file to the line scanner, which alone defines
what is accepted and every error message.  On generated files — headers
odd and exact, blank lines, comments, extra tokens, duplicates (reversed
ones in undirected files), out-of-range, negative and non-integer ids —
``read_edge_list`` must return the scanner's graph or raise its message.
"""

from __future__ import annotations

import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.digraph import Graph
from repro.graph.generators import chung_lu_power_law
from repro.graph.io import _read_plain, _scan_edge_list, read_edge_list, write_edge_list

ids = st.integers(min_value=0, max_value=12)
token = st.one_of(
    ids.map(str),
    st.sampled_from(["-1", "x", "1.5", "+2", "007", "99", "2147483648"]),
)
edge_line = st.tuples(ids, ids).map(lambda e: f"{e[0]} {e[1]}")
odd_line = st.one_of(
    st.just(""),
    st.just("   "),
    st.just("# a comment"),
    st.lists(token, min_size=1, max_size=4).map(" ".join),
    st.tuples(ids, ids).map(lambda e: f"{e[0]}\t{e[1]}"),
    st.tuples(ids, ids).map(lambda e: f"  {e[0]}  {e[1]}  "),
)
header = st.one_of(
    st.none(),
    st.tuples(st.integers(0, 1), st.integers(0, 16)).map(
        lambda h: f"# directed={h[0]} num_vertices={h[1]}"
    ),
    st.sampled_from(
        [
            "# directed=2 num_vertices=13",
            "#directed=0 num_vertices=13",
            "# num_vertices=13 directed=0",
            "# directed=0 num_vertices=x",
            "# directed=0",
            "# written by hand",
        ]
    ),
)


@st.composite
def edge_files(draw):
    lines = draw(st.lists(edge_line, max_size=24, unique=True))
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), draw(odd_line))
    if draw(st.booleans()) and lines:
        # Repeat one line, reversed or not: a duplicate in either direction.
        u_v = draw(st.sampled_from(lines)).split()
        if len(u_v) == 2:
            lines.append(" ".join(reversed(u_v)) if draw(st.booleans()) else " ".join(u_v))
    head = draw(header)
    text = "\n".join(([head] if head is not None else []) + lines)
    return text + draw(st.sampled_from(["", "\n", "\n\n", "\r\n"]))


def outcome(read, path):
    try:
        graph = read(path)
    except ValueError as error:
        return "error", str(error)
    return "graph", (graph.num_vertices, graph.directed, sorted(graph.edges()))


@settings(max_examples=400, deadline=None)
@given(edge_files())
def test_read_edge_list_equals_the_line_scanner(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "g.txt")
        with open(path, "w", encoding="ascii", newline="") as handle:
            handle.write(text)
        assert outcome(read_edge_list, path) == outcome(_scan_edge_list, path)
        plain = _read_plain(path)
        if plain is not None:  # the bulk parse accepts a subset, never more
            assert outcome(_scan_edge_list, path)[0] == "graph"


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 60), st.booleans(), st.integers(0, 2**16))
def test_written_files_take_the_bulk_parse(n, directed, seed):
    graph = chung_lu_power_law(n, 3.0, directed=directed, seed=seed)
    graph = Graph(n + 3, graph.edge_array(), directed=directed)  # isolated tail
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "g.txt")
        write_edge_list(graph, path)
        assert _read_plain(path) == graph == _scan_edge_list(path)
