"""A single fragment of a hybrid partition.

A fragment F_i = (V_i, E_i) stores *copies* of vertices and the local
edges incident to them.  The same vertex (and even the same edge) may
appear in several fragments — that is what makes the partition *hybrid*
(Section 2).  The fragment maintains per-vertex local in/out degrees
(``d⁺_L`` / ``d⁻_L`` of the cost model's metric variables) incrementally.

Fragments are mutated only through :class:`~repro.partition.hybrid.
HybridPartition`, which keeps the cross-fragment placement index in sync.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterator, Set, Tuple

Edge = Tuple[int, int]


class Fragment:
    """One fragment of a hybrid partition.

    Parameters
    ----------
    fid:
        Fragment id (``0 .. n-1``); also the simulated worker id.
    directed:
        Whether the host graph is directed.  Controls how an edge
        contributes to local degrees.
    """

    __slots__ = ("fid", "directed", "_incident", "_edges", "_in_deg", "_out_deg")

    def __init__(self, fid: int, directed: bool) -> None:
        self.fid = fid
        self.directed = directed
        self._incident: Dict[int, Set[Edge]] = {}
        self._edges: Set[Edge] = set()
        self._in_deg: Dict[int, int] = {}
        self._out_deg: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        """``|V_i|``: number of vertex copies in this fragment."""
        return len(self._incident)

    @property
    def num_edges(self) -> int:
        """``|E_i|``: number of local edges in this fragment."""
        return len(self._edges)

    def vertices(self) -> Iterator[int]:
        """Iterate over vertex ids present in this fragment, in no set order."""
        return iter(self._incident)

    def edges(self) -> Iterator[Edge]:
        """Iterate over local edges, in no set order."""
        return iter(self._edges)

    def has_vertex(self, v: int) -> bool:
        """Whether a copy of ``v`` is present."""
        return v in self._incident

    def has_edge(self, edge: Edge) -> bool:
        """Whether ``edge`` is stored locally."""
        return edge in self._edges

    def incident(self, v: int) -> FrozenSet[Edge]:
        """``E^v_i``: local edges incident to ``v`` (empty if absent)."""
        return frozenset(self._incident.get(v, ()))

    def incident_count(self, v: int) -> int:
        """``|E^v_i|`` without materializing the set."""
        bucket = self._incident.get(v)
        return len(bucket) if bucket is not None else 0

    def local_in_degree(self, v: int) -> int:
        """``d⁺_L(v)``: in-degree of ``v``'s copy within this fragment."""
        return self._in_deg.get(v, 0)

    def local_out_degree(self, v: int) -> int:
        """``d⁻_L(v)``: out-degree of ``v``'s copy within this fragment."""
        return self._out_deg.get(v, 0)

    def local_out_neighbors(self, v: int) -> Iterator[int]:
        """Local out-neighbors of ``v`` (all neighbors if undirected)."""
        for u, w in self._incident.get(v, ()):
            if u == v:
                yield w
            elif not self.directed:
                yield u

    def local_in_neighbors(self, v: int) -> Iterator[int]:
        """Local in-neighbors of ``v`` (all neighbors if undirected)."""
        for u, w in self._incident.get(v, ()):
            if w == v:
                yield u
            elif not self.directed:
                yield w

    # ------------------------------------------------------------------
    # Mutations (package-internal; call through HybridPartition)
    # ------------------------------------------------------------------
    def _add_vertex(self, v: int) -> bool:
        """Ensure a copy of ``v`` exists; return True if newly added."""
        if v in self._incident:
            return False
        self._incident[v] = set()
        return True

    def _remove_vertex(self, v: int) -> None:
        """Remove the copy of ``v``; it must have no local edges left."""
        bucket = self._incident.get(v)
        if bucket is None:
            return
        if bucket:
            raise ValueError(f"cannot remove vertex {v} with local edges")
        del self._incident[v]
        self._in_deg.pop(v, None)
        self._out_deg.pop(v, None)

    def _add_edge(self, edge: Edge) -> bool:
        """Add ``edge`` locally (endpoint copies created); True if new."""
        if edge in self._edges:
            return False
        u, v = edge
        incident = self._incident
        if u not in incident:
            incident[u] = set()
        if v not in incident:
            incident[v] = set()
        self._edges.add(edge)
        incident[u].add(edge)
        incident[v].add(edge)
        if self.directed:
            self._out_deg[u] = self._out_deg.get(u, 0) + 1
            self._in_deg[v] = self._in_deg.get(v, 0) + 1
        else:
            self._out_deg[u] = self._out_deg.get(u, 0) + 1
            self._in_deg[u] = self._in_deg.get(u, 0) + 1
            if u != v:
                self._out_deg[v] = self._out_deg.get(v, 0) + 1
                self._in_deg[v] = self._in_deg.get(v, 0) + 1
        return True

    def _remove_edge(self, edge: Edge) -> bool:
        """Remove ``edge``; endpoint copies stay.  True if it was present."""
        if edge not in self._edges:
            return False
        u, v = edge
        self._edges.discard(edge)
        self._incident[u].discard(edge)
        self._incident[v].discard(edge)
        if self.directed:
            _decrement(self._out_deg, u)
            _decrement(self._in_deg, v)
        else:
            _decrement(self._out_deg, u)
            _decrement(self._in_deg, u)
            if u != v:
                _decrement(self._out_deg, v)
                _decrement(self._in_deg, v)
        return True

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Fragment({self.fid}, |V|={self.num_vertices}, |E|={self.num_edges})"


def _decrement(counts: Dict[int, int], v: int) -> None:
    """Count one fewer for ``v``; a count that reaches zero is removed, so a
    degree index holds exactly the nonzero degrees."""
    left = counts[v] - 1
    if left:
        counts[v] = left
    else:
        del counts[v]
