"""The set-of-tuples ``Graph``, frozen from before the packed-key tables.

Verbatim copy of ``repro.graph.digraph.Graph`` (renamed ``SetGraph``) as it
stood when a Python
``set`` of ``(u, v)`` tuples was the source of truth and every mutation
batch re-derived the canonical arrays with ``sorted`` + ``np.asarray`` and
both CSRs with a stable ``argsort`` (``_refresh``).  The one edit is the
undirected branch of ``incident_edge_count``, patched for the self-loop
double count the replacement fixed in the same change.  The table-backed
``Graph`` must stay indistinguishable from this one — CSR slice orders and
dtypes included (``tests/graph/test_graph_tables.py``).
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Iterator, Sequence, Tuple

import numpy as np

Edge = Tuple[int, int]


class SetGraph:
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
        "_src",
        "_dst",
        "_out_indptr",
        "_out_indices",
        "_in_indptr",
        "_in_indices",
        "_edge_set",
        "_digest",
        "_version",
        "_arrays_stale",
    )

    def __init__(
        self,
        num_vertices: int,
        edges: Iterable[Edge],
        directed: bool = True,
    ) -> None:
        if num_vertices < 0:
            raise ValueError("num_vertices must be non-negative")
        self._num_vertices = int(num_vertices)
        self._directed = bool(directed)

        pairs = self._canonical_pairs(edges)
        if pairs:
            arr = np.asarray(sorted(pairs), dtype=np.int64)
            src, dst = arr[:, 0], arr[:, 1]
        else:
            src = np.empty(0, dtype=np.int64)
            dst = np.empty(0, dtype=np.int64)
        if len(src):
            lo = int(min(src.min(), dst.min()))
            hi = int(max(src.max(), dst.max()))
            if lo < 0 or hi >= num_vertices:
                bad = lo if lo < 0 else hi
                raise ValueError(
                    f"edge endpoint {bad} out of range for a graph with "
                    f"{num_vertices} vertices (valid ids: 0..{num_vertices - 1})"
                )
        self._src = src
        self._dst = dst
        self._edge_set = pairs
        self._digest: str = ""
        self._version = 0
        self._arrays_stale = False

        out_src = np.concatenate([src, dst]) if not directed else src
        out_dst = np.concatenate([dst, src]) if not directed else dst
        self._out_indptr, self._out_indices = self._build_csr(out_src, out_dst)
        if directed:
            self._in_indptr, self._in_indices = self._build_csr(dst, src)
        else:
            self._in_indptr, self._in_indices = self._out_indptr, self._out_indices

    def _canonical_pairs(self, edges: Iterable[Edge]) -> set:
        pairs = set()
        if self._directed:
            for u, v in edges:
                pairs.add((int(u), int(v)))
        else:
            for u, v in edges:
                u, v = int(u), int(v)
                pairs.add((u, v) if u <= v else (v, u))
        return pairs

    def _build_csr(
        self, src: np.ndarray, dst: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        n = self._num_vertices
        counts = np.bincount(src, minlength=n) if len(src) else np.zeros(n, dtype=np.int64)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        order = np.argsort(src, kind="stable") if len(src) else np.empty(0, dtype=np.int64)
        indices = dst[order] if len(src) else np.empty(0, dtype=np.int64)
        return indptr, indices

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

    def _invalidate_arrays(self) -> None:
        self._version += 1
        self._digest = ""
        self._arrays_stale = True

    def _refresh(self) -> None:
        """Rebuild the canonical edge arrays and CSR indices if stale."""
        if not self._arrays_stale:
            return
        if self._edge_set:
            arr = np.asarray(sorted(self._edge_set), dtype=np.int64)
            src, dst = arr[:, 0], arr[:, 1]
        else:
            src = np.empty(0, dtype=np.int64)
            dst = np.empty(0, dtype=np.int64)
        self._src = src
        self._dst = dst
        out_src = np.concatenate([src, dst]) if not self._directed else src
        out_dst = np.concatenate([dst, src]) if not self._directed else dst
        self._out_indptr, self._out_indices = self._build_csr(out_src, out_dst)
        if self._directed:
            self._in_indptr, self._in_indices = self._build_csr(dst, src)
        else:
            self._in_indptr, self._in_indices = self._out_indptr, self._out_indices
        self._arrays_stale = False

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
        self._num_vertices += 1
        self._invalidate_arrays()
        return v

    def add_edge(self, u: int, v: int) -> bool:
        """Insert edge ``(u, v)``; True if it was not already present.

        Undirected graphs store the canonical ``(min, max)`` form, so
        inserting ``(v, u)`` after ``(u, v)`` is a no-op.  Raises
        :class:`ValueError` when either endpoint is out of range.
        """
        u, v = self._check_endpoint(u), self._check_endpoint(v)
        edge = self.canonical_edge(u, v)
        if edge in self._edge_set:
            return False
        self._edge_set.add(edge)
        self._invalidate_arrays()
        return True

    def remove_edge(self, u: int, v: int) -> bool:
        """Delete edge ``(u, v)``; True if it was present."""
        u, v = self._check_endpoint(u), self._check_endpoint(v)
        edge = self.canonical_edge(u, v)
        if edge not in self._edge_set:
            return False
        self._edge_set.discard(edge)
        self._invalidate_arrays()
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
        return len(self._edge_set)

    @property
    def directed(self) -> bool:
        """Whether this graph is directed."""
        return self._directed

    @property
    def vertices(self) -> range:
        """Range over all vertex ids."""
        return range(self._num_vertices)

    def edges(self) -> Iterator[Edge]:
        """Iterate over edges as ``(u, v)`` tuples (canonical order)."""
        self._refresh()
        for u, v in zip(self._src.tolist(), self._dst.tolist()):
            yield (u, v)

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
            self._refresh()
            hasher = hashlib.sha256()
            hasher.update(f"graph:{self._num_vertices}:{int(self._directed)}:".encode())
            hasher.update(np.ascontiguousarray(self._src, dtype="<i8").tobytes())
            hasher.update(np.ascontiguousarray(self._dst, dtype="<i8").tobytes())
            self._digest = hasher.hexdigest()
        return self._digest

    def edge_array(self) -> np.ndarray:
        """Return an ``(m, 2)`` int64 array of edges (canonical order)."""
        self._refresh()
        return np.stack([self._src, self._dst], axis=1) if len(self._src) else np.empty((0, 2), dtype=np.int64)

    def has_edge(self, u: int, v: int) -> bool:
        """Whether edge ``(u, v)`` exists (direction-insensitive if undirected)."""
        if self._directed:
            return (u, v) in self._edge_set
        return ((u, v) if u <= v else (v, u)) in self._edge_set

    def contains_edges(self, edges: Iterable[Edge]) -> bool:
        """Whether every edge of ``edges``, given in canonical form, exists."""
        return self._edge_set.issuperset(edges)

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
        self._refresh()
        return self._out_indices[self._out_indptr[v] : self._out_indptr[v + 1]]

    def in_neighbors(self, v: int) -> np.ndarray:
        """In-neighbors of ``v`` (all neighbors if undirected)."""
        self._refresh()
        return self._in_indices[self._in_indptr[v] : self._in_indptr[v + 1]]

    def neighbors(self, v: int) -> np.ndarray:
        """All neighbors of ``v`` regardless of direction (deduplicated)."""
        if not self._directed:
            return self.out_neighbors(v)
        return np.unique(np.concatenate([self.out_neighbors(v), self.in_neighbors(v)]))

    def out_degree(self, v: int) -> int:
        """``d⁻_G(v)``: out-degree of ``v`` in the full graph."""
        self._refresh()
        return int(self._out_indptr[v + 1] - self._out_indptr[v])

    def in_degree(self, v: int) -> int:
        """``d⁺_G(v)``: in-degree of ``v`` in the full graph."""
        self._refresh()
        return int(self._in_indptr[v + 1] - self._in_indptr[v])

    def degree(self, v: int) -> int:
        """Total incident-edge count of ``v`` (in + out; undirected: degree)."""
        if self._directed:
            return self.out_degree(v) + self.in_degree(v)
        return self.out_degree(v)

    def out_degrees(self) -> np.ndarray:
        """Vector of out-degrees for all vertices."""
        self._refresh()
        return np.diff(self._out_indptr)

    def in_degrees(self) -> np.ndarray:
        """Vector of in-degrees for all vertices."""
        self._refresh()
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

    def incident_edge_count(self, v: int) -> int:
        """``|E_v|``: number of distinct edges incident to ``v``."""
        if self._directed:
            extra = 1 if self.has_edge(v, v) else 0
            return self.out_degree(v) + self.in_degree(v) - extra
        # Patched (see the module docstring): an undirected self-loop sits in
        # both CSR halves but is one edge.
        return self.out_degree(v) - (1 if self.has_edge(v, v) else 0)

    # ------------------------------------------------------------------
    # Derived graphs
    # ------------------------------------------------------------------
    def as_undirected(self) -> "SetGraph":
        """Return an undirected copy (edge directions dropped)."""
        if not self._directed:
            return self
        return SetGraph(self._num_vertices, self._edge_set, directed=False)

    def subgraph(self, vertices: Sequence[int]) -> "SetGraph":
        """Induced subgraph on ``vertices``, relabeled to ``0..len-1``.

        Vertex ``vertices[i]`` becomes vertex ``i`` in the result.
        """
        keep = {int(v): i for i, v in enumerate(vertices)}
        edges = [
            (keep[u], keep[v])
            for u, v in self._edge_set
            if u in keep and v in keep
        ]
        return SetGraph(len(keep), edges, directed=self._directed)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kind = "directed" if self._directed else "undirected"
        return f"Graph({kind}, |V|={self.num_vertices}, |E|={self.num_edges})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SetGraph):
            return NotImplemented
        return (
            self._num_vertices == other._num_vertices
            and self._directed == other._directed
            and self._edge_set == other._edge_set
        )

    def __hash__(self) -> int:
        return hash((self._num_vertices, self._directed, frozenset(self._edge_set)))
