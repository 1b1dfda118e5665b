"""Edge-list I/O.

The on-disk format is a plain text edge list with an optional header line::

    # directed=1 num_vertices=10
    0 1
    0 2
    ...

The header makes round-trips exact even for graphs with isolated trailing
vertices.  Files without a header are read as directed graphs whose vertex
count is ``max id + 1``.
"""

from __future__ import annotations

import os
import re
from typing import Optional, Union

import numpy as np

from repro.graph.digraph import _MAX_VERTICES, Graph

PathLike = Union[str, "os.PathLike[str]"]


def write_edge_list(graph: Graph, path: PathLike) -> None:
    """Write ``graph`` to ``path`` in header + edge-list format."""
    src, dst = graph.edge_array().T
    with open(path, "w", encoding="ascii") as handle:
        handle.write(
            f"# directed={int(graph.directed)} num_vertices={graph.num_vertices}\n"
            + "".join(map("%d %d\n".__mod__, zip(src.tolist(), dst.tolist())))
        )


def write_metis(graph: Graph, path: PathLike) -> None:
    """Write ``graph`` in METIS/Chaco format (1-indexed adjacency lines).

    METIS format is undirected; directed graphs are written as their
    undirected view.  Line 1: ``num_vertices num_edges``; line ``i + 1``:
    the neighbors of vertex ``i`` (1-indexed).  Self-loops are dropped
    (METIS disallows them).
    """
    view = graph.as_undirected()
    edges = [(u, v) for u, v in view.edges() if u != v]
    adjacency = [[] for _ in range(view.num_vertices)]
    for u, v in edges:
        adjacency[u].append(v + 1)
        adjacency[v].append(u + 1)
    with open(path, "w", encoding="ascii") as handle:
        handle.write(f"{view.num_vertices} {len(edges)}\n")
        for neighbors in adjacency:
            handle.write(" ".join(str(n) for n in sorted(neighbors)) + "\n")


def read_metis(path: PathLike) -> Graph:
    """Read a METIS/Chaco format graph (undirected)."""
    with open(path, "r", encoding="ascii") as handle:
        # Blank lines are *meaningful* (isolated vertices); only comments
        # are dropped.
        lines = [
            line.strip()
            for line in handle
            if not line.lstrip().startswith("%")
        ]
    while lines and not lines[-1]:
        lines.pop()  # trailing newline noise
    if not lines or not lines[0]:
        raise ValueError("empty METIS file")
    header = lines[0].split()
    num_vertices, num_edges = int(header[0]), int(header[1])
    if len(lines) - 1 < num_vertices:
        raise ValueError(
            f"METIS file declares {num_vertices} vertices but has "
            f"{len(lines) - 1} adjacency lines"
        )
    edges = set()
    for v in range(num_vertices):
        for token in lines[1 + v].split():
            u = int(token) - 1
            if not 0 <= u < num_vertices:
                raise ValueError(f"neighbor {token} out of range on line {v + 2}")
            if u != v:
                edges.add((min(u, v), max(u, v)))
    if len(edges) != num_edges:
        raise ValueError(
            f"METIS header declares {num_edges} edges, found {len(edges)}"
        )
    return Graph(num_vertices, edges, directed=False)


def read_edge_list(path: PathLike) -> Graph:
    """Read a graph written by :func:`write_edge_list` (or a bare list).

    The reader is strict: malformed lines, non-integer or negative
    vertex ids, duplicate edges, and ids beyond a declared
    ``num_vertices`` all raise :class:`ValueError` naming the offending
    line — a partitioning run on a silently mangled graph wastes far
    more time than a loud parse error.

    A file in :func:`write_edge_list`'s own shape is parsed in bulk; any
    other file goes to the line scanner, which alone defines what is
    accepted and every error message.
    """
    graph = _read_plain(path)
    return graph if graph is not None else _scan_edge_list(path)


#: write_edge_list's header, the only one the bulk parse accepts
_HEADER = re.compile(rb"# directed=([01]) num_vertices=([0-9]{1,10})\n")
_DIGITS = 10


def _read_plain(path: PathLike) -> Optional[Graph]:
    """The bulk parse: the graph of a file that is an optional
    :func:`write_edge_list` header and then ``u v`` lines only (decimal
    ids, one space, ``\\n`` ends, the last one optional), in range and
    free of duplicates — or ``None`` for any other file."""
    with open(path, "rb") as handle:
        data = handle.read()
    directed, num_vertices = True, None
    header = _HEADER.match(data)
    if header:
        directed, num_vertices = header.group(1) == b"1", int(header.group(2))
        data = data[header.end() :]
    if data and not data.endswith(b"\n"):
        data += b"\n"
    text = np.frombuffer(data, dtype=np.uint8)
    ends = np.flatnonzero((text < 48) | (text > 57))  # every non-digit ends a token
    starts = np.concatenate([[0], ends[:-1] + 1])
    lengths = ends - starts
    if (
        len(ends) % 2
        or (text[ends[0::2]] != 32).any()
        or (text[ends[1::2]] != 10).any()
        or (lengths < 1).any()
        or (lengths > _DIGITS).any()
    ):
        return None
    ids = np.zeros(len(ends), dtype=np.int64)
    for place in range(int(lengths.max(initial=0))):
        more = lengths > place
        ids[more] = ids[more] * 10 + (text[starts[more] + place] - 48)
    src, dst = ids[0::2], ids[1::2]
    if num_vertices is None:
        num_vertices = int(ids.max(initial=-1)) + 1
    if num_vertices > _MAX_VERTICES or (len(ids) and ids.max() >= num_vertices):
        return None
    if not directed:
        keys = np.sort((np.minimum(src, dst) << 32) | np.maximum(src, dst))
    else:
        keys = np.sort((src << 32) | dst)
    if (keys[1:] == keys[:-1]).any():
        return None
    return Graph(num_vertices, np.stack([src, dst], axis=1), directed=directed)


def _scan_edge_list(path: PathLike) -> Graph:
    """The line scanner behind :func:`read_edge_list`."""
    directed = True
    num_vertices = None
    entries = []  # (line number, u, v)
    max_id = -1
    with open(path, "r", encoding="ascii") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                for token in line[1:].split():
                    key, _, value = token.partition("=")
                    if key not in ("directed", "num_vertices"):
                        continue
                    try:
                        parsed = int(value)
                    except ValueError:
                        raise ValueError(
                            f"{path}: line {lineno}: header field "
                            f"{key}={value!r} is not an integer"
                        ) from None
                    if key == "directed":
                        directed = bool(parsed)
                    else:
                        num_vertices = parsed
                continue
            parts = line.split()
            if len(parts) < 2:
                raise ValueError(
                    f"{path}: line {lineno}: malformed edge line: {line!r}"
                )
            try:
                u, v = int(parts[0]), int(parts[1])
            except ValueError:
                raise ValueError(
                    f"{path}: line {lineno}: non-integer vertex id in "
                    f"edge line: {line!r}"
                ) from None
            if u < 0 or v < 0:
                raise ValueError(
                    f"{path}: line {lineno}: negative vertex id in "
                    f"edge ({u}, {v})"
                )
            entries.append((lineno, u, v))
            max_id = max(max_id, u, v)
    if num_vertices is None:
        num_vertices = max_id + 1
    elif max_id >= num_vertices:
        bad = next(
            (lineno, u, v)
            for lineno, u, v in entries
            if u >= num_vertices or v >= num_vertices
        )
        raise ValueError(
            f"{path}: line {bad[0]}: edge ({bad[1]}, {bad[2]}) references "
            f"a vertex id >= declared num_vertices={num_vertices}"
        )
    # Duplicate detection honours the (header-declared) directedness:
    # (u, v) and (v, u) are the same edge in an undirected file.
    first_seen = {}
    for lineno, u, v in entries:
        key = (u, v) if directed or u <= v else (v, u)
        if key in first_seen:
            raise ValueError(
                f"{path}: line {lineno}: duplicate edge ({u}, {v}) "
                f"(first seen on line {first_seen[key]})"
            )
        first_seen[key] = lineno
    return Graph(
        num_vertices, [(u, v) for _, u, v in entries], directed=directed
    )
