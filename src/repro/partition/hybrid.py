"""The hybrid partition HP(n) of Section 2.

A :class:`HybridPartition` holds ``n`` :class:`~repro.partition.fragment.
Fragment` objects over one :class:`~repro.graph.digraph.Graph` and keeps
three cross-fragment indexes in sync through every mutation:

* the *placement* index — which fragments hold a copy of each vertex;
* the *full-copy* index — which fragments hold **all** edges incident to a
  vertex (the basis of the e-cut / v-cut / dummy role classification);
* the *master* mapping — one designated master copy per replicated vertex
  (communication in the cost model is charged to masters, Eq. 3).

Role semantics (Section 2):

* a vertex is **e-cut** if some fragment holds its complete incident edge
  set ``E_v``; exactly one such full copy is the *e-cut node* (it bears
  the computation cost), all other copies are *dummy nodes*;
* a vertex is **v-cut** if no fragment holds all of ``E_v``; every copy
  with at least one local edge is a *v-cut node* and bears the cost of its
  local edges; zero-edge copies are dummies.

Mutations go through the single-edge verbs ``add_edge_to`` /
``remove_edge_from`` / ``add_vertex_to`` / ``remove_vertex_from`` or, for a
refiner's move, the star transaction ``transfer_star``, so listeners (the
refiners' incremental cost trackers) are told of every vertex whose
features may have changed.  Partitions nobody observes yet (constructors,
deserialization) are filled by :meth:`HybridPartition._bulk_load` instead,
and ``copy`` copies the containers.

No result depends on the order an index was filled in: whatever reads an
index in order reads it by vertex id, then fragment id, then packed edge
key (DESIGN §8.2), so two partitions with equal contents refine, price
and run identically however they were built.
"""

from __future__ import annotations

import enum
from itertools import repeat, starmap
from typing import Callable, Collection, Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.graph.digraph import Graph, _sorted_unique
from repro.partition.fragment import Edge, Fragment


class NodeRole(enum.Enum):
    """Role of one vertex *copy* within one fragment (Section 2)."""

    ECUT = "e-cut"
    VCUT = "v-cut"
    DUMMY = "dummy"


def copy_role(home: Optional[int], fid: int, local_edges: int) -> NodeRole:
    """Section 2 in one place: with a designated home the vertex is e-cut
    and only the home copy computes; without one it is v-cut and every
    copy holding local edges does."""
    if home is not None:
        return NodeRole.ECUT if fid == home else NodeRole.DUMMY
    return NodeRole.VCUT if local_edges else NodeRole.DUMMY


#: mutation-journal capacity; once exceeded the oldest half is dropped and
#: delta queries that reach past the window report "unknown" (full rebuild)
JOURNAL_CAP = 1 << 17


class HybridPartition:
    """A hybrid n-way partition HP(n) = (F_1, ..., F_n) of a graph.

    Parameters
    ----------
    graph:
        The partitioned graph.  Not copied.  In-place graph mutations
        (streaming ingestion) must be followed by :meth:`graph_changed`
        for the touched vertices so the cross-fragment indexes stay
        coherent.
    num_fragments:
        ``n``, the number of fragments (= simulated workers).
    """

    def __init__(self, graph: Graph, num_fragments: int) -> None:
        if num_fragments < 1:
            raise ValueError("num_fragments must be >= 1")
        self.graph = graph
        self.num_fragments = num_fragments
        self.fragments: List[Fragment] = [
            Fragment(i, graph.directed) for i in range(num_fragments)
        ]
        self._placement: Dict[int, Set[int]] = {}
        self._full: Dict[int, Set[int]] = {}
        self._masters: Dict[int, int] = {}
        # Per-vertex graph constants (see _facts); graph_changed drops them.
        self._graph_facts: Dict[int, Tuple[int, int, int]] = {}
        self._listeners: List[Callable[[int], None]] = []
        self._generation = 0
        # Mutation journal: entry i records the vertex whose notify moved
        # the generation from _journal_start + i to _journal_start + i + 1.
        self._journal: List[int] = []
        self._journal_start = 0
        # The graph version the journal vouches for: every vertex whose
        # incident edge set changed up to it has been notified.
        self._graph_version = graph.version

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_vertex_assignment(
        cls, graph: Graph, assignment: Sequence[int], num_fragments: int
    ) -> "HybridPartition":
        """Build an edge-cut partition from a vertex → fragment assignment.

        Every vertex is placed with **all** its incident edges in its own
        fragment (edge-cut locality); the far endpoint of each cut edge
        appears as a dummy copy, exactly as in Fig. 1(b).
        """
        part = cls(graph, num_fragments)
        homes = [int(assignment[v]) for v in graph.vertices]
        for v, fid in enumerate(homes):
            if not 0 <= fid < num_fragments:
                raise ValueError(f"assignment for vertex {v} out of range")
        home = np.asarray(homes, dtype=np.int64)
        src, dst = graph.edge_array().T
        cut = home[src] != home[dst]
        part._bulk_load(
            np.concatenate(
                [
                    _block(home, np.arange(len(home)), -1),
                    _block(home[src], src, dst),
                    _block(home[dst[cut]], src[cut], dst[cut]),
                ],
                axis=1,
            )
        )
        part._masters.update(enumerate(homes))
        return part

    @classmethod
    def from_edge_assignment(
        cls,
        graph: Graph,
        assignment: Dict[Edge, int],
        num_fragments: int,
    ) -> "HybridPartition":
        """Build a vertex-cut partition from an edge → fragment assignment.

        Edge sets are disjoint across fragments; a replicated vertex is
        mastered at the fragment that received its first copy in
        assignment-iteration order (MAssign can reassign it later).
        """
        part = cls(graph, num_fragments)
        fids = np.fromiter(map(int, assignment.values()), np.int64, len(assignment))
        src, dst = np.array(list(assignment), dtype=np.int64).reshape(-1, 2).T
        ok = (fids >= 0) & (fids < num_fragments)
        ok &= graph.has_edges(src, dst)
        if not ok.all():
            first = int(np.argmin(ok))
            edge = list(assignment)[first]
            if not 0 <= fids[first] < num_fragments:
                raise ValueError(f"assignment for edge {edge} out of range")
            raise ValueError(f"edge {edge} does not exist in the graph")
        if not graph.directed:
            src, dst = np.minimum(src, dst), np.maximum(src, dst)
        # Isolated vertices still need a home.
        isolated = np.ones(graph.num_vertices, dtype=bool)
        isolated[src] = isolated[dst] = False
        isolated = np.flatnonzero(isolated)
        part._bulk_load(
            np.concatenate(
                [
                    _block(fids, src, dst),
                    _block(isolated % num_fragments, isolated, np.full_like(isolated, -1)),
                ],
                axis=1,
            )
        )
        return part

    def _bulk_load(self, events: np.ndarray) -> None:
        """Build every index of this partition from a ``(3, k)`` int64 event array.

        Column ``(fid, v, -1)`` puts a copy of vertex ``v`` into fragment
        ``fid``; column ``(fid, u, w)`` the canonical, existing edge
        ``(u, w)`` with its endpoint copies.  The constructor body behind
        ``from_*_assignment`` and deserialization.  Every index holds what
        ``add_vertex_to`` / ``add_edge_to`` called per column would leave,
        but each container is built once, in C, from sorted columns, keys
        in vertex-id order: no consumer reads an index in any order but a
        canonical one (DESIGN §8.2).  The one order the columns keep is a
        rule, not a layout: a vertex's default master is the fragment of
        its first copy in column order, an edge touching ``u`` before
        ``w``.  The indexes share one int object per vertex id and one
        tuple per edge, fullness is read off bucket sizes, and nobody is
        notified: an in-place restore wakes its own listeners.
        """
        graph, k = self.graph, self.num_fragments
        n = graph.num_vertices
        counts = graph.incident_edge_counts()
        # One int object per vertex id, indexed like an array.
        vertex = np.arange(n).astype(object)
        if not self._graph_facts:
            self._graph_facts = dict(
                zip(
                    vertex.tolist(),
                    zip(counts.tolist(), graph.in_degrees().tolist(), graph.out_degrees().tolist()),
                )
            )
        fids, src, dst = events
        del events
        # Copies: the distinct (vertex, fid) touches, vertex-major, each
        # with its first touch; a bare vertex's empty slot sorts last.
        touch = np.stack([src, dst], axis=1).ravel() * k + np.repeat(fids, 2)
        touch[1::2][dst < 0] = n * k
        order = _stable_order(touch)
        touch = touch[order]
        head = _heads(touch)
        keys, first = touch[head], order[head]
        if len(keys) and keys[-1] == n * k:
            keys, first = keys[:-1], first[:-1]
        copy_v, copy_f = np.divmod(keys, k)
        # Per placed vertex: its hosts, ascending, and the fragment it touched first.
        starts = np.flatnonzero(_heads(copy_v))
        placed = copy_v[starts]
        host_counts = np.diff(np.append(starts, len(keys)))
        masters = fids[np.minimum.reduceat(first, starts) // 2] if len(starts) else starts
        # Stored edges: the distinct (edge, fid) pairs, edge-major, over one
        # id per distinct edge.
        at = np.flatnonzero(dst >= 0)
        edge = src[at] * n + dst[at]
        order = np.argsort(edge)
        fresh = _heads(edge[order])
        distinct = edge[order[fresh]]
        edge_id = np.empty(len(edge), dtype=np.int64)
        edge_id[order] = np.cumsum(fresh) - 1
        stored_edge, stored_f = np.divmod(_sorted_unique(edge_id * k + fids[at]), k)
        # The event columns go before any container is built.
        del fids, src, dst, touch, order, head, first, starts, at, edge, fresh, edge_id
        u, w = np.divmod(distinct[stored_edge], n)
        u_copy = np.searchsorted(keys, u * k + stored_f)
        w_copy = np.searchsorted(keys, w * k + stored_f)
        loose = u != w  # a self-loop is one bucket entry
        del u, w, keys
        # Per copy, in copy order: bucket size and fullness (a bucket of
        # |E_v| edges; every copy of an edge-free vertex).
        size = np.bincount(u_copy, minlength=len(copy_v)) + np.bincount(
            w_copy[loose], minlength=len(copy_v)
        )
        full = size == counts[copy_v]
        full_v, full_f = copy_v[full], copy_f[full]
        full_starts = np.flatnonzero(_heads(full_v))
        full_keys = full_v[full_starts]
        full_counts = np.diff(np.append(full_starts, len(full_v)))
        # ... and fragment-major, ids ascending: buckets and local degrees
        # (an undirected edge counts at both ends, a self-loop once).
        by_fragment = _stable_order(copy_f)
        rank = np.empty_like(by_fragment)
        rank[by_fragment] = np.arange(len(by_fragment))
        bucket_rank = rank[np.concatenate([u_copy, w_copy[loose]])]
        bucket_edges = np.concatenate([stored_edge, stored_edge[loose]])[_stable_order(bucket_rank)]
        if graph.directed:
            out_deg = np.bincount(u_copy, minlength=len(copy_v))[by_fragment]
            in_deg = np.bincount(w_copy, minlength=len(copy_v))[by_fragment]
        else:
            out_deg = in_deg = size[by_fragment]
        hosts, size, copy_v = copy_f, size[by_fragment], copy_v[by_fragment]
        copy_cut = _fragment_cut(copy_f[by_fragment], k)
        # Each fragment's stored edges, in ascending packed key.
        by_edge_f = _stable_order(stored_f)
        edge_cut = _fragment_cut(stored_f[by_edge_f], k)
        stored = stored_edge[by_edge_f]
        # One tuple per distinct edge, shared by every copy that stores it,
        # allocated in the order the fragments' edge sets first hold them:
        # the fills below then walk memory mostly in address order.
        by_first = _stable_order(stored_f[_heads(stored_edge)])
        del u_copy, w_copy, loose, full, full_v, full_starts, copy_f, rank, bucket_rank
        del stored_edge, stored_f, by_fragment, by_edge_f

        # Every set is allocated empty before any is filled: the allocations
        # that pace the cyclic GC then meet empty sets and no long list.
        copies = vertex[copy_v].tolist()
        placed = vertex[placed].tolist()
        full_keys = vertex[full_keys].tolist()
        sets = list(starmap(set, repeat((), len(copies) + len(placed) + len(full_keys))))
        buckets, sets = sets[: len(copies)], sets[len(copies) :]
        host_sets, full_sets = sets[: len(placed)], sets[len(placed) :]
        distinct = distinct[by_first]
        edge = np.empty(len(distinct), dtype=object)
        edge[by_first] = np.fromiter(
            zip(vertex[distinct // n].tolist(), vertex[distinct % n].tolist()),
            dtype=object,
            count=len(distinct),
        )
        del distinct, by_first, sets
        _fill(buckets, edge[bucket_edges].tolist(), size)
        _fill(host_sets, hosts.tolist(), host_counts)
        _fill(full_sets, full_f.tolist(), full_counts)
        del bucket_edges, hosts, full_f, size
        self._placement = dict(zip(placed, host_sets))
        self._masters = dict(zip(placed, masters.tolist()))
        self._full = dict(zip(full_keys, full_sets))
        for fid, fragment in enumerate(self.fragments):
            a, b = copy_cut[fid], copy_cut[fid + 1]
            fragment._incident = dict(zip(copies[a:b], buckets[a:b]))
            fragment._out_deg = _degrees(copy_v[a:b], out_deg[a:b], vertex)
            fragment._in_deg = _degrees(copy_v[a:b], in_deg[a:b], vertex)
            a, b = edge_cut[fid], edge_cut[fid + 1]
            fragment._edges = set(edge[stored[a:b]].tolist())

    # ------------------------------------------------------------------
    # Listener registration (used by incremental cost trackers)
    # ------------------------------------------------------------------
    def add_listener(self, callback: Callable[[int], None]) -> None:
        """Register ``callback(v)`` to fire when vertex ``v``'s copies change."""
        self._listeners.append(callback)

    def remove_listener(self, callback: Callable[[int], None]) -> None:
        """Unregister a listener previously added with :meth:`add_listener`."""
        self._listeners.remove(callback)

    def _notify(self, v: int) -> None:
        self._notify_all((v,))

    def _notify_all(self, touched: Collection[int]) -> None:
        """Journal and announce one transaction's touched vertices, each
        once.  Listeners only mark, so hearing at the end is hearing
        during, and in any order: what they mark is read in vertex-id
        order (DESIGN §8.2)."""
        journal = self._journal
        journal.extend(touched)
        self._generation += len(touched)
        if len(journal) > JOURNAL_CAP:
            # Oldest half out, and whatever a batch larger than that adds.
            drop = max(len(journal) // 2, len(journal) - JOURNAL_CAP)
            del journal[:drop]
            self._journal_start += drop
        for callback in self._listeners:
            for v in touched:
                callback(v)

    def mutations_since(self, generation: int) -> Optional[Set[int]]:
        """Vertices notified after ``generation``, or None when unknown.

        Returns the exact set of vertices whose copies may have changed
        between ``generation`` and :attr:`generation` — the delta that
        :func:`repro.runtime.plan.plan_for` patches instead of
        recompiling.  Returns ``None`` when ``generation`` predates the
        journal window (capped at :data:`JOURNAL_CAP` entries), which
        forces callers back to a full rebuild.
        """
        if generation < self._journal_start:
            return None
        if generation >= self._generation:
            return set()
        return set(self._journal[generation - self._journal_start :])

    @property
    def generation(self) -> int:
        """Monotonic mutation counter.

        Incremented on every copy-set change; :func:`repro.runtime.plan.plan_for`
        compares it against the generation a cached plan was compiled at,
        so plan invalidation needs no listener registration (refiners fire
        thousands of mutations and pay for every registered listener).
        """
        return self._generation

    # ------------------------------------------------------------------
    # Global helpers
    # ------------------------------------------------------------------
    def _facts(self, v: int) -> Tuple[int, int, int]:
        """``(|E_v|, d⁺_G(v), d⁻_G(v))`` in the full graph (cached)."""
        facts = self._graph_facts.get(v)
        if facts is None:
            graph = self.graph
            facts = self._graph_facts[v] = (
                graph.incident_edge_count(v),
                graph.in_degree(v),
                graph.out_degree(v),
            )
        return facts

    def global_incident_count(self, v: int) -> int:
        """``|E_v|`` in the full graph (cached)."""
        return self._facts(v)[0]

    # ------------------------------------------------------------------
    # Placement / role queries
    # ------------------------------------------------------------------
    def placement(self, v: int) -> FrozenSet[int]:
        """Fragments currently holding a copy of ``v``."""
        return frozenset(self._placement.get(v, ()))

    def mirrors(self, v: int) -> int:
        """``r(v)``: number of copies of ``v`` beyond the first."""
        return max(0, len(self._placement.get(v, ())) - 1)

    def is_border(self, v: int) -> bool:
        """Whether ``v`` is replicated (``v ∈ F.O``)."""
        return len(self._placement.get(v, ())) > 1

    def full_fragments(self, v: int) -> FrozenSet[int]:
        """Fragments holding the complete incident edge set of ``v``."""
        return frozenset(self._full.get(v, ()))

    def is_ecut_vertex(self, v: int) -> bool:
        """Whether ``v`` is e-cut (some fragment holds all of ``E_v``)."""
        if self._facts(v)[0] == 0:
            return v in self._placement
        return bool(self._full.get(v))

    def is_vcut_vertex(self, v: int) -> bool:
        """Whether ``v`` is v-cut (no fragment holds all of ``E_v``)."""
        return v in self._placement and not self.is_ecut_vertex(v)

    def designated_home(self, v: int) -> Optional[int]:
        """The fragment whose copy of ``v`` is the cost-bearing e-cut node.

        Prefers the master copy when it is full, so that MAssign's master
        moves also decide which full copy carries the computation.
        Returns ``None`` for v-cut or absent vertices.
        """
        return self._home(v, self._facts(v)[0])

    def _home(self, v: int, total: int) -> Optional[int]:
        """:meth:`designated_home` for a caller that already holds ``|E_v|``."""
        if total == 0:
            return self._masters.get(v)
        full = self._full.get(v)
        if not full:
            return None
        master = self._masters.get(v)
        if master in full:
            return master
        return min(full)

    def role(self, v: int, fid: int) -> NodeRole:
        """Role of the copy of ``v`` in fragment ``fid`` (Section 2)."""
        bucket = self.fragments[fid]._incident.get(v)
        if bucket is None:
            raise KeyError(f"vertex {v} not in fragment {fid}")
        return copy_role(self.designated_home(v), fid, len(bucket))

    def cost_bearing(self, v: int, fid: int) -> bool:
        """Whether the copy of ``v`` at ``fid`` contributes to C_h (Eq. 2)."""
        return self.role(v, fid) is not NodeRole.DUMMY

    # ------------------------------------------------------------------
    # Master mapping
    # ------------------------------------------------------------------
    def master(self, v: int) -> int:
        """Fragment id of the master copy of ``v``."""
        try:
            return self._masters[v]
        except KeyError:
            raise KeyError(f"vertex {v} has no copies in the partition") from None

    def set_master(self, v: int, fid: int) -> None:
        """Reassign the master of ``v`` to fragment ``fid`` (MAssign)."""
        if fid not in self._placement.get(v, ()):
            raise ValueError(f"fragment {fid} holds no copy of vertex {v}")
        if self._masters.get(v) != fid:
            self._masters[v] = fid
            self._notify(v)

    # ------------------------------------------------------------------
    # Mutation primitives
    # ------------------------------------------------------------------
    def add_vertex_to(self, fid: int, v: int) -> bool:
        """Ensure a copy of ``v`` in fragment ``fid``; True if newly added."""
        added = self.fragments[fid]._add_vertex(v)
        if added:
            self._place(v, fid)
            if self._facts(v)[0] == 0:
                self._full.setdefault(v, set()).add(fid)
            self._notify(v)
        return added

    def remove_vertex_from(self, fid: int, v: int) -> None:
        """Remove the (edge-free) copy of ``v`` from fragment ``fid``."""
        if self.fragments[fid].has_vertex(v):
            self._prune(fid, v)
            self._notify(v)

    def _prune(self, fid: int, v: int) -> None:
        """Drop the edge-free copy of ``v`` at ``fid`` from fragment and indexes."""
        self.fragments[fid]._remove_vertex(v)
        hosts = self._placement[v]
        hosts.discard(fid)
        full = self._full.get(v)
        if full is not None:
            full.discard(fid)
            if not full:  # ``_full`` keeps no empty set
                del self._full[v]
        if not hosts:
            del self._placement[v]
            del self._masters[v]
            self._full.pop(v, None)
            return
        if self._masters[v] == fid:
            self._masters[v] = min(hosts)

    def add_edge_to(self, fid: int, edge: Edge) -> bool:
        """Add ``edge`` to fragment ``fid``; True if it was not there."""
        graph = self.graph
        if not graph.has_edge(*edge):
            raise ValueError(f"edge {edge} does not exist in the graph")
        touched: Set[int] = set()
        if not self._enter(fid, graph.canonical_edge(*edge), touched):
            return False
        self._notify_all(touched)
        return True

    def _enter(self, fid: int, edge: Edge, touched: Set[int]) -> bool:
        """Put canonical ``edge`` into fragment ``fid``; True if it was new."""
        u, v = edge
        fragment = self.fragments[fid]
        incident = fragment._incident
        new_u, new_v = u not in incident, v not in incident
        if not fragment._add_edge(edge):
            return False
        if new_u:
            self._place(u, fid)
        if new_v:
            self._place(v, fid)
        self._settle(fid, edge, False, touched)
        return True

    def _place(self, v: int, fid: int) -> None:
        """Index a new copy of ``v`` at ``fid``; the first copy is the master."""
        hosts = self._placement.get(v)
        if hosts is None:
            self._placement[v] = {fid}
        else:
            hosts.add(fid)
        if v not in self._masters:
            self._masters[v] = fid

    def _settle(self, fid: int, edge: Edge, prune: bool, touched: Set[int]) -> None:
        """Per endpoint of an ``edge`` that entered or left ``fid``: fullness,
        pruning of a copy left edge-free (unless it is the last one) and the
        touch.  A self-loop's one endpoint is settled once."""
        incident = self.fragments[fid]._incident
        for w in edge if edge[0] != edge[1] else edge[:1]:
            self._refresh_fullness(w, fid)
            if prune and not incident[w] and len(self._placement.get(w, ())) > 1:
                self._prune(fid, w)
            touched.add(w)

    def remove_edge_from(self, fid: int, edge: Edge, prune: bool = True) -> bool:
        """Remove ``edge`` from fragment ``fid``; True if it was present.

        With ``prune`` (default) endpoint copies left without local edges
        are dropped from the fragment unless they are the last copy of the
        vertex anywhere (a vertex must keep at least one copy so that
        V = ∪V_i holds).
        """
        edge = self.graph.canonical_edge(*edge)
        if not self.fragments[fid]._remove_edge(edge):
            return False
        touched: Set[int] = set()
        self._settle(fid, edge, prune, touched)
        self._notify_all(touched)
        return True

    def transfer_star(
        self,
        v: int,
        edges: Sequence[Edge],
        dst: int,
        src: Optional[int] = None,
        keep: str = "all",
    ) -> None:
        """Bring the star ``(v, edges)`` into fragment ``dst``: one transaction.

        The refiners' unit of mutation (DESIGN §8.2).  ``edges`` are
        canonical edges of the graph incident to ``v``, checked once, up
        front.  Each is added to ``dst`` and then leaves its sources as
        ``keep`` says: ``"all"`` touches no source (a unit being placed),
        ``"none"`` migrates every edge (VMigrate), ``"bearing"`` replicates
        it where its far endpoint's copy bears cost and migrates it
        otherwise (EMigrate, VMerge).  The source is ``src``, or with
        ``src=None`` the other copies of ``v`` (failing that, of the far
        endpoint) holding the edge.  Equal, edge for edge, to
        ``add_edge_to`` then ``remove_edge_from`` per source, except that
        each touched vertex is journalled and announced once, at the end,
        and the fullness of ``v``'s own copies — which nothing in between
        reads — is settled per fragment, last.
        """
        if keep not in ("all", "none", "bearing"):
            raise ValueError(f"unknown keep rule {keep!r}")
        if src == dst:
            raise ValueError("a star's source and destination must differ")
        if not self.graph.contains_edges(edges):
            raise ValueError(f"star of vertex {v} holds an edge the graph lacks")
        fragments, facts, placement = self.fragments, self._graph_facts, self._placement
        incident, add = fragments[dst]._incident, fragments[dst]._add_edge
        refresh, place, prune = self._refresh_fullness, self._place, self._prune
        lookup, bearing = src is None and keep != "all", keep == "bearing"
        sources = () if keep == "all" or src is None else (src,)
        touched: Set[int] = set()
        changed = set()  # fragments whose copy of v gained or lost an edge
        try:
            for edge in edges:
                a, b = edge
                u = a if b == v else b
                if lookup:
                    sources = self._holders(v, edge, dst) or self._holders(u, edge, dst)
                new_u, new_v = u not in incident, v not in incident
                if add(edge):
                    changed.add(dst)
                    if new_v:
                        place(v, dst)
                    if u != v:
                        if new_u:
                            place(u, dst)
                        refresh(u, dst)
                        touched.add(u)
                for fid in sources:
                    fragment = fragments[fid]
                    bucket = fragment._incident.get(u)
                    if bearing and u != v and bucket is not None:
                        # u's fullness at dst is settled: its home can be read.
                        home = self._home(u, (facts.get(u) or self._facts(u))[0])
                        if copy_role(home, fid, len(bucket)) is not NodeRole.DUMMY:
                            continue
                    if not fragment._remove_edge(edge):
                        continue
                    changed.add(fid)
                    if u != v:
                        refresh(u, fid)
                        if not bucket and len(placement.get(u, ())) > 1:
                            prune(fid, u)
                        touched.add(u)
                    if not fragment._incident[v] and len(placement.get(v, ())) > 1:
                        prune(fid, v)
        finally:
            for fid in changed:
                refresh(v, fid)
            if changed:
                touched.add(v)
            self._notify_all(touched)

    def _holders(self, w: int, edge: Edge, dst: int) -> List[int]:
        """Fragments other than ``dst`` hosting ``w`` and holding ``edge``."""
        return [
            fid
            for fid in sorted(self._placement.get(w, ()))
            if fid != dst and edge in self.fragments[fid]._edges
        ]

    def graph_changed(self, vertices: Iterable[int]) -> None:
        """Re-sync per-vertex caches after an in-place graph mutation.

        Callers that mutate ``self.graph`` through its streaming hooks
        (``Graph.add_edge`` / ``Graph.remove_edge`` / ``Graph.add_vertex``)
        must pass every vertex whose incident edge set changed.  Cached
        global incident counts are dropped, fullness is recomputed on
        every hosting fragment (a full copy may stop being full when an
        edge appears, or become full when one disappears), and listeners
        and the generation counter fire as for any other mutation.  The
        partition then vouches for the graph's current version: its
        journal holds the change, so a cached plan can be patched across
        the version bump instead of recompiled (DESIGN §15).
        """
        for v in sorted({int(v) for v in vertices}):
            self._graph_facts.pop(v, None)
            total = self._facts(v)[0]
            hosts = self._placement.get(v, ())
            if total == 0:
                # Every copy of an edge-free vertex is trivially full.
                if hosts:
                    self._full[v] = set(hosts)
                else:
                    self._full.pop(v, None)
            for fid in sorted(hosts):
                self._refresh_fullness(v, fid)
            self._notify(v)
        self._graph_version = self.graph.version

    def _refresh_fullness(self, v: int, fid: int) -> None:
        total = (self._graph_facts.get(v) or self._facts(v))[0]
        if total == 0:
            return
        full = self._full.get(v)
        if len(self.fragments[fid]._incident.get(v, ())) == total:
            if full is None:
                self._full[v] = {fid}
            else:
                full.add(fid)
        elif full is not None:
            full.discard(fid)
            if not full:
                del self._full[v]

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------
    def total_vertex_copies(self) -> int:
        """``Σ |V_i|`` over all fragments."""
        return sum(f.num_vertices for f in self.fragments)

    def total_edge_copies(self) -> int:
        """``Σ |E_i|`` over all fragments."""
        return sum(f.num_edges for f in self.fragments)

    def vertex_fragments(self) -> Iterator[Tuple[int, FrozenSet[int]]]:
        """Iterate ``(v, fragments holding v)`` pairs, ``v`` ascending."""
        placement = self._placement
        for v in sorted(placement):
            yield v, frozenset(placement[v])

    def copy(self) -> "HybridPartition":
        """Deep copy (fragments, indexes, masters); listeners not copied.

        Vertex ids and edge tuples are shared: they are immutable.
        """
        clone = HybridPartition(self.graph, self.num_fragments)
        clone._graph_facts = dict(self._graph_facts)
        clone._placement = {v: set(hosts) for v, hosts in self._placement.items()}
        clone._full = {v: set(full) for v, full in self._full.items()}
        clone._masters = dict(self._masters)
        clone._graph_version = self._graph_version
        for mine, theirs in zip(clone.fragments, self.fragments):
            mine._incident = {v: set(bucket) for v, bucket in theirs._incident.items()}
            mine._edges = set(theirs._edges)
            mine._in_deg, mine._out_deg = dict(theirs._in_deg), dict(theirs._out_deg)
        return clone

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        sizes = ", ".join(
            f"F{f.fid}(|V|={f.num_vertices},|E|={f.num_edges})" for f in self.fragments
        )
        return f"HybridPartition[{sizes}]"


def _block(fids, src: np.ndarray, dst) -> np.ndarray:
    """Loader events putting vertices ``src`` (``dst`` = -1) or edges
    ``(src, dst)`` into fragments ``fids`` (arrays or scalars)."""
    return np.stack(np.broadcast_arrays(fids, src, dst)).astype(np.int64, copy=False)


def _fragment_cut(fids: np.ndarray, k: int) -> List[int]:
    """Bounds of each fragment's run in ascending ``fids``."""
    return np.searchsorted(fids, np.arange(k + 1)).tolist()


def _cut(items: list, sizes: np.ndarray) -> Iterator[list]:
    """``items`` cut into consecutive runs of ``sizes``."""
    ends = np.cumsum(sizes).tolist()
    return map(items.__getitem__, map(slice, [0] + ends[:-1], ends))


def _stable_order(keys: np.ndarray) -> np.ndarray:
    """``np.argsort(keys, kind="stable")`` of non-negative int64 keys: one
    plain sort of ``key << b | index`` where the pair fits in 63 bits."""
    shift = max(len(keys) - 1, 1).bit_length()
    if len(keys) and int(keys.max()) >> (62 - shift):
        return np.argsort(keys, kind="stable")
    return np.sort((keys << shift) | np.arange(len(keys))) & ((1 << shift) - 1)


def _fill(sets: List[set], items: list, sizes: np.ndarray) -> None:
    """Add consecutive runs of ``items``, ``sizes`` long, to ``sets`` in turn:
    the layout ``set(run)`` gives, without a tracked allocation."""
    for _ in map(set.update, sets, _cut(items, sizes)):
        pass


def _heads(keys: np.ndarray) -> np.ndarray:
    """Where each run of equal values in ``keys`` starts."""
    head = np.ones(len(keys), dtype=bool)
    head[1:] = keys[1:] != keys[:-1]
    return head


def _degrees(vertices: np.ndarray, degrees: np.ndarray, vertex: np.ndarray) -> Dict[int, int]:
    """``{v: degree}`` over the copies with a nonzero ``degrees``, in
    ``vertices`` order, keyed by the shared int objects of ``vertex``."""
    some = degrees > 0
    return dict(zip(vertex[vertices[some]].tolist(), degrees[some].tolist()))
