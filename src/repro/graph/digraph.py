"""Core graph data structure.

:class:`Graph` is the single graph type used throughout the library.  Its
source of truth is a set of *sorted packed-key tables* (DESIGN §16): the
canonical edge table holds one ``src << 32 | dst`` key per edge, and each
CSR (compressed sparse row) adjacency is its own sorted table keyed
``(owner, half, neighbour)``, so the degree metrics of the paper's cost
model (Section 3.1) are O(1) lookups and neighbor scans are contiguous
``int64`` slices.

Vertices are integers ``0 .. num_vertices - 1``.  Undirected graphs store
each edge once in canonical ``(min, max)`` order; adjacency queries expose
both directions.  Self-loops are permitted; parallel edges are removed at
construction (the paper's partition model treats the edge set as a set).

Graphs are *mostly* immutable: the streaming-ingestion hooks
:meth:`Graph.add_vertex`, :meth:`Graph.add_edge` and
:meth:`Graph.remove_edge` (DESIGN §15) bump :attr:`Graph.version` and
append to a pending log; the next array read folds the log into every
table with one ``searchsorted`` + ``np.insert`` / ``np.delete`` and an
``indptr`` tail shift — nothing is re-sorted or rebuilt.  Any
:class:`~repro.partition.hybrid.HybridPartition` built over the graph
must be re-synced through ``HybridPartition.graph_changed`` after such a
mutation.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Iterable, Iterator, Sequence, Tuple

import numpy as np

Edge = Tuple[int, int]

#: Key stride: a fixed ``owner << 32``, so growing the graph never re-keys.
_STRIDE = 1 << 32
#: Bit 31 flags the second half of an undirected adjacency row, which
#: leaves 31 bits for the neighbour: ids stay below ``_MAX_VERTICES``.
_HALF = 1 << 31
_LOW = _HALF - 1
_MAX_VERTICES = 1 << 31


def _indptr(keys: np.ndarray, n: int) -> np.ndarray:
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys >> 32, minlength=n), out=indptr[1:])
    return indptr


def _sorted_unique(keys: np.ndarray) -> np.ndarray:
    """``np.unique(keys)``, by one sort and a neighbour compare."""
    keys = np.sort(keys)
    return keys[np.concatenate(([True], keys[1:] != keys[:-1]))] if len(keys) else keys


def _patch(keys: np.ndarray, add: np.ndarray, drop: np.ndarray) -> np.ndarray:
    """One sorted key table with sorted ``drop`` taken out and ``add`` put in."""
    if len(drop):
        keys = np.delete(keys, np.searchsorted(keys, drop))
    if len(add):
        keys = np.insert(keys, np.searchsorted(keys, add), add)
    return keys


def _shift(indptr: np.ndarray, add: np.ndarray, drop: np.ndarray, n: int) -> np.ndarray:
    """``indptr`` grown to ``n`` rows, each tail shifted by its owners' net change."""
    step = np.bincount((add >> 32) + 1, minlength=n + 1)
    step -= np.bincount((drop >> 32) + 1, minlength=n + 1)
    np.cumsum(step, out=step)
    step[: len(indptr)] += indptr
    step[len(indptr) :] += indptr[-1]
    return step


class Graph:
    """An (un)directed graph with CSR adjacency and streaming hooks.

    Parameters
    ----------
    num_vertices:
        Number of vertices; vertex ids are ``0 .. num_vertices - 1``.
    edges:
        Iterable of ``(u, v)`` pairs.  Duplicates are dropped.  For
        undirected graphs, ``(u, v)`` and ``(v, u)`` are the same edge.
    directed:
        Whether edge direction is meaningful.  Default ``True``.
    """

    __slots__ = (
        "_num_vertices",
        "_directed",
        "_keys",
        "_adj_keys",
        "_out_indptr",
        "_out_indices",
        "_in_indptr",
        "_in_indices",
        "_members",
        "_pending",
        "_stale",
        "_digest",
        "_version",
        "_neighbours",
    )

    def __init__(
        self,
        num_vertices: int,
        edges: Iterable[Edge],
        directed: bool = True,
    ) -> None:
        if num_vertices < 0:
            raise ValueError("num_vertices must be non-negative")
        if num_vertices > _MAX_VERTICES:
            raise ValueError(f"num_vertices must not exceed {_MAX_VERTICES}")
        self._num_vertices = n = int(num_vertices)
        self._directed = bool(directed)

        if not isinstance(edges, np.ndarray):
            edges = list(edges)
        try:
            pairs = np.array(edges, dtype=np.int64)
        except OverflowError:
            raise ValueError("edge endpoint out of range: id does not fit 64 bits") from None
        if pairs.size == 0:
            pairs = pairs.reshape(0, 2)
        elif pairs.ndim != 2 or pairs.shape[1] != 2:
            raise ValueError("edges must be (u, v) pairs")
        src, dst = pairs[:, 0], pairs[:, 1]
        if len(src):
            lo = int(min(src.min(), dst.min()))
            hi = int(max(src.max(), dst.max()))
            if lo < 0 or hi >= n:
                bad = lo if lo < 0 else hi
                raise ValueError(
                    f"edge endpoint {bad} out of range for a graph with "
                    f"{n} vertices (valid ids: 0..{n - 1})"
                )
        if not directed:
            src, dst = np.minimum(src, dst), np.maximum(src, dst)
        #: Canonical edge table: sorted ``src << 32 | dst``.  For a
        #: directed graph it doubles as the out-CSR's ``(src, dst)`` table.
        self._keys = keys = _sorted_unique((src << 32) | dst)
        #: The scalar view of the same set, kept current by the hooks, so
        #: ``has_edge`` / ``num_edges`` never wait for a fold.
        self._members = set(keys.tolist())
        #: Net edge changes not yet in the tables: key -> present afterwards.
        self._pending: Dict[int, bool] = {}
        self._stale = False
        self._digest: str = ""
        self._version = 0
        #: ``neighbors``' unique-neighbour CSR ``(indptr, indices)``, built on
        #: first use and dropped with the other stale state by ``_touch``.
        self._neighbours = None
        #: Directed: the in-CSR's ``(dst, src)`` table.  Undirected: the one
        #: table behind both CSRs, ``(owner, half, neighbour)`` — per owner
        #: ``v`` first the ``(v, w), w >= v`` half, then the ``(u, v), u <= v``
        #: half, each ascending.
        self._adj_keys = self._adjacent(keys)
        self._in_indptr = _indptr(self._adj_keys, n)
        self._out_indptr = _indptr(keys, n) if directed else self._in_indptr
        self._set_indices()

    def _adjacent(self, keys: np.ndarray) -> np.ndarray:
        """The second table's sorted keys for canonical ``keys``."""
        swapped = ((keys & _LOW) << 32) | (keys >> 32)
        if self._directed:
            return np.sort(swapped)
        return np.sort(np.concatenate([keys, swapped | _HALF]))

    def _set_indices(self) -> None:
        self._in_indices = self._adj_keys & _LOW
        self._out_indices = self._keys & _LOW if self._directed else self._in_indices

    # ------------------------------------------------------------------
    # Mutation hooks (streaming ingestion, DESIGN §15)
    # ------------------------------------------------------------------
    def _check_endpoint(self, v: int) -> int:
        v = int(v)
        if not 0 <= v < self._num_vertices:
            raise ValueError(
                f"edge endpoint {v} out of range for a graph with "
                f"{self._num_vertices} vertices "
                f"(valid ids: 0..{self._num_vertices - 1})"
            )
        return v

    def _key(self, u: int, v: int) -> int:
        """Packed key of ``(u, v)``'s canonical form, endpoints range-checked."""
        u, v = self.canonical_edge(self._check_endpoint(u), self._check_endpoint(v))
        return u << 32 | v

    def _log(self, key: int, present: bool) -> None:
        """Record one net change; a change that undoes a pending one cancels it."""
        if self._pending.pop(key, None) is None:
            self._pending[key] = present
        self._touch()

    def _touch(self) -> None:
        self._version += 1
        self._digest = ""
        self._neighbours = None
        self._stale = True

    def _fold(self) -> None:
        """Fold the pending log (and appended vertices) into the tables."""
        n = self._num_vertices
        self._stale = False
        pending, self._pending = self._pending, {}
        log = np.fromiter(pending, np.int64, len(pending))
        present = np.fromiter(pending.values(), bool, len(pending))
        add, drop = np.sort(log[present]), np.sort(log[~present])
        self._keys = _patch(self._keys, add, drop)
        if self._directed:
            self._out_indptr = _shift(self._out_indptr, add, drop, n)
        add, drop = self._adjacent(add), self._adjacent(drop)
        self._adj_keys = _patch(self._adj_keys, add, drop)
        self._in_indptr = _shift(self._in_indptr, add, drop, n)
        if not self._directed:
            self._out_indptr = self._in_indptr
        self._set_indices()

    @property
    def version(self) -> int:
        """Monotonic mutation counter; bumped by every in-place change.

        Consumers that cache arrays derived from the graph (e.g.
        :class:`repro.runtime.plan.FragmentPlan`) record the version at
        build time and treat any difference as a structural change.
        """
        return self._version

    def add_vertex(self) -> int:
        """Append one isolated vertex and return its id."""
        v = self._num_vertices
        if v >= _MAX_VERTICES:
            raise ValueError(f"num_vertices must not exceed {_MAX_VERTICES}")
        self._num_vertices += 1
        self._touch()
        return v

    def add_edge(self, u: int, v: int) -> bool:
        """Insert edge ``(u, v)``; True if it was not already present.

        Undirected graphs store the canonical ``(min, max)`` form, so
        inserting ``(v, u)`` after ``(u, v)`` is a no-op.  Raises
        :class:`ValueError` when either endpoint is out of range.
        """
        key = self._key(u, v)
        if key in self._members:
            return False
        self._members.add(key)
        self._log(key, True)
        return True

    def remove_edge(self, u: int, v: int) -> bool:
        """Delete edge ``(u, v)``; True if it was present."""
        key = self._key(u, v)
        if key not in self._members:
            return False
        self._members.discard(key)
        self._log(key, False)
        return True

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        """Number of vertices in the graph."""
        return self._num_vertices

    @property
    def num_edges(self) -> int:
        """Number of (distinct) edges in the graph."""
        return len(self._members)

    @property
    def directed(self) -> bool:
        """Whether this graph is directed."""
        return self._directed

    @property
    def vertices(self) -> range:
        """Range over all vertex ids."""
        return range(self._num_vertices)

    def _columns(self) -> Tuple[np.ndarray, np.ndarray]:
        """The canonical ``(src, dst)`` columns, unpacked from the edge table."""
        if self._stale:
            self._fold()
        return self._keys >> 32, self._keys & _LOW

    def edges(self) -> Iterator[Edge]:
        """Iterate over edges as ``(u, v)`` tuples (canonical order)."""
        src, dst = self._columns()
        yield from zip(src.tolist(), dst.tolist())

    def digest(self) -> str:
        """Content hash of the graph, stable across processes and hash seeds.

        SHA-256 over the vertex count, directedness, and the canonical
        (sorted) edge arrays in fixed little-endian 64-bit layout.  Two
        graphs with the same structure always share a digest, which is
        what lets the evaluation engine address cached partitions and
        run profiles by the *content* of their inputs
        (:mod:`repro.eval.engine`).
        """
        if not self._digest:
            hasher = hashlib.sha256()
            hasher.update(f"graph:{self._num_vertices}:{int(self._directed)}:".encode())
            for column in self._columns():
                hasher.update(column.astype("<i8").tobytes())
            self._digest = hasher.hexdigest()
        return self._digest

    def edge_array(self) -> np.ndarray:
        """Return an ``(m, 2)`` int64 array of edges (canonical order)."""
        return np.stack(self._columns(), axis=1)

    def has_edge(self, u: int, v: int) -> bool:
        """Whether edge ``(u, v)`` exists (direction-insensitive if undirected)."""
        if not self._directed and u > v:
            u, v = v, u
        # Range-checked so an id >= 2**32 cannot alias a stored key, and
        # multiplied rather than shifted so a narrow NumPy scalar cannot
        # wrap silently.
        return 0 <= v < _STRIDE and u * _STRIDE + v in self._members

    def contains_edges(self, edges: Iterable[Edge]) -> bool:
        """Whether every edge of ``edges``, given in canonical form, exists."""
        # One subset test in C; an id that cannot be packed becomes a key
        # (-1) no stored edge has.
        return self._members.issuperset(
            [u * _STRIDE + v if 0 <= v < _STRIDE else -1 for u, v in edges]
        )

    def has_edges(self, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        """:meth:`has_edge` of every ``(src[i], dst[i])``, as a bool array."""
        src, dst = np.asarray(src, dtype=np.int64), np.asarray(dst, dtype=np.int64)
        if not self._directed:
            src, dst = np.minimum(src, dst), np.maximum(src, dst)
        if self._stale:
            self._fold()
        n, table = self._num_vertices, self._keys
        found = (src >= 0) & (src < n) & (dst >= 0) & (dst < n)
        keys = (src[found] << 32) | dst[found]
        at = np.searchsorted(table, keys)
        hit = at < len(table)
        hit[hit] = table[at[hit]] == keys[hit]
        found[found] = hit
        return found

    def canonical_edge(self, u: int, v: int) -> Edge:
        """Return the canonical key under which ``(u, v)`` is stored."""
        if self._directed or u <= v:
            return (u, v)
        return (v, u)

    # ------------------------------------------------------------------
    # Adjacency
    # ------------------------------------------------------------------
    def out_neighbors(self, v: int) -> np.ndarray:
        """Out-neighbors of ``v`` (all neighbors if undirected)."""
        if self._stale:
            self._fold()
        return self._out_indices[self._out_indptr[v] : self._out_indptr[v + 1]]

    def in_neighbors(self, v: int) -> np.ndarray:
        """In-neighbors of ``v`` (all neighbors if undirected)."""
        if self._stale:
            self._fold()
        return self._in_indices[self._in_indptr[v] : self._in_indptr[v + 1]]

    def neighbors(self, v: int) -> np.ndarray:
        """All neighbors of ``v`` regardless of direction (deduplicated).

        Directed: ascending.  Undirected: the adjacency row without the
        self-loop's closing repeat.  A read-only slice of a CSR built once
        per graph version.
        """
        table = self._neighbours
        if table is None:
            table = self._neighbours = self._neighbour_table()
        indptr, indices = table
        return indices[indptr[v] : indptr[v + 1]]

    def _neighbour_table(self) -> Tuple[np.ndarray, np.ndarray]:
        if self._stale:
            self._fold()
        if self._directed:
            # Both tables' (owner, neighbour) keys, deduplicated and sorted.
            keys = _sorted_unique(np.concatenate([self._keys, self._adj_keys]))
        else:
            # Only a self-loop repeats: it closes the row's second half.
            adj = self._adj_keys
            keys = adj[((adj & _HALF) == 0) | ((adj & _LOW) != adj >> 32)]
        indices = keys & _LOW
        indices.flags.writeable = False
        return _indptr(keys, self._num_vertices), indices

    def out_degree(self, v: int) -> int:
        """``d⁻_G(v)``: out-degree of ``v`` in the full graph."""
        if self._stale:
            self._fold()
        return int(self._out_indptr[v + 1] - self._out_indptr[v])

    def in_degree(self, v: int) -> int:
        """``d⁺_G(v)``: in-degree of ``v`` in the full graph."""
        if self._stale:
            self._fold()
        return int(self._in_indptr[v + 1] - self._in_indptr[v])

    def degree(self, v: int) -> int:
        """Total incident-edge count of ``v`` (in + out; undirected: degree).

        A self-loop counts twice, the usual convention;
        :meth:`incident_edge_count` counts it once.
        """
        if self._directed:
            return self.out_degree(v) + self.in_degree(v)
        return self.out_degree(v)

    def out_degrees(self) -> np.ndarray:
        """Vector of out-degrees for all vertices."""
        if self._stale:
            self._fold()
        return np.diff(self._out_indptr)

    def in_degrees(self) -> np.ndarray:
        """Vector of in-degrees for all vertices."""
        if self._stale:
            self._fold()
        return np.diff(self._in_indptr)

    def incident_edges(self, v: int) -> Iterator[Edge]:
        """Iterate over all edges incident to ``v`` in canonical form.

        This is the paper's ``E_v`` — the set of edges touching ``v`` in G.
        """
        seen = set()
        for u in self.out_neighbors(v).tolist():
            e = self.canonical_edge(v, u)
            if e not in seen:
                seen.add(e)
                yield e
        if self._directed:
            for u in self.in_neighbors(v).tolist():
                e = self.canonical_edge(u, v)
                if e not in seen:
                    seen.add(e)
                    yield e

    def incident_edge_counts(self) -> np.ndarray:
        """Vector of :meth:`incident_edge_count` for all vertices."""
        src, dst = self._columns()
        loops = np.bincount(src[src == dst], minlength=self._num_vertices)
        if self._directed:
            return np.diff(self._out_indptr) + np.diff(self._in_indptr) - loops
        return np.diff(self._out_indptr) - loops

    def incident_edge_count(self, v: int) -> int:
        """``|E_v|``: number of distinct edges incident to ``v``.

        A self-loop sits in both adjacency rows (directed) or both halves
        of the one row (undirected) but is one edge.
        """
        if self._stale:
            self._fold()
        out, into = self._out_indptr, self._in_indptr
        total = int(out[v + 1] - out[v]) - (v * _STRIDE + v in self._members)
        return total + int(into[v + 1] - into[v]) if self._directed else total

    # ------------------------------------------------------------------
    # Derived graphs
    # ------------------------------------------------------------------
    def as_undirected(self) -> "Graph":
        """Return an undirected copy (edge directions dropped)."""
        if not self._directed:
            return self
        return Graph(self._num_vertices, self.edge_array(), directed=False)

    def subgraph(self, vertices: Sequence[int]) -> "Graph":
        """Induced subgraph on ``vertices``, relabeled to ``0..len-1``.

        Vertex ``vertices[i]`` becomes vertex ``i`` in the result.
        """
        keep = {int(v): i for i, v in enumerate(vertices)}
        edges = [
            (keep[u], keep[v])
            for u, v in self.edges()
            if u in keep and v in keep
        ]
        return Graph(len(keep), edges, directed=self._directed)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kind = "directed" if self._directed else "undirected"
        return f"Graph({kind}, |V|={self.num_vertices}, |E|={self.num_edges})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            self._num_vertices == other._num_vertices
            and self._directed == other._directed
            and self._members == other._members
        )

    def __hash__(self) -> int:
        return hash((self._num_vertices, self._directed, frozenset(self.edges())))
