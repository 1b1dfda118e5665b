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
``copy``, deserialization) are filled by :meth:`HybridPartition._bulk_load`
instead (DESIGN §8.2).
"""

from __future__ import annotations

import enum
from collections import Counter
from itertools import chain, repeat, starmap
from typing import Callable, Collection, Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.graph.digraph import Graph
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
        part._bulk_load(_home_events(graph, np.asarray(homes, dtype=np.int64)))
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

    def _bulk_load(self, events: np.ndarray, tuples: Optional[np.ndarray] = None) -> None:
        """Build every index of this partition from a ``(3, k)`` int64 event array.

        Column ``(fid, v, -1)`` puts a copy of vertex ``v`` into fragment
        ``fid``; column ``(fid, u, w)`` the canonical, existing edge
        ``(u, w)`` with its endpoint copies.  ``tuples``, an object array
        of the columns' edge tuples, lets a caller that already holds them
        (:meth:`copy`) have them stored; otherwise one is made per distinct
        edge.  The constructor body behind ``from_*_assignment``,
        :meth:`copy` and deserialization.  Every
        index comes out as ``add_vertex_to`` / ``add_edge_to`` called per
        column, in column order, would leave it — key orders and set
        layouts included, since index iteration orders feed float sums
        downstream (DESIGN §8.2) — but each container is built once, in C,
        from orders a few array sorts derive: the first touch of each
        ``(vertex, fid)`` copy, the first occurrence of each ``(edge,
        fid)`` pair and each bucket's edges in event order.  The indexes
        share one int object per vertex id and one tuple per edge,
        fullness is read off bucket sizes, and nobody is notified: an
        in-place restore wakes its own listeners.
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
        # _full opens a vertex's key when an edge of it is first stored
        # (walking {u, w}) or, edge-free, when its first copy is placed.
        opens = (dst >= 0) | (counts[src] == 0)
        full_keys = _first_touches(src[opens], dst[opens], n)

        # Copies: the first touch of each (vertex, fid); an edge touches u, then w.
        pair = np.stack([src, dst], axis=1).ravel() * k + np.repeat(fids, 2)
        pair[1::2][dst < 0] = n * k  # a bare vertex's empty slot: one last group
        order = _stable_order(pair)
        pair = pair[order]
        head = np.ones(len(pair), dtype=bool)
        head[1:] = pair[1:] != pair[:-1]
        copy_at = np.empty(len(pair), dtype=np.int64)
        copy_at[order] = np.cumsum(head) - 1  # touch -> its copy's index in keys
        keys, first = pair[head], order[head]
        if len(keys) and keys[-1] == n * k:
            keys, first = keys[:-1], first[:-1]
        del opens, pair, order, head
        # ... in global first-touch order: placement, hosts, default masters;
        by_touch = np.argsort(first)
        touch_v, touch_f = np.divmod(keys[by_touch], k)
        opened = np.full(n, len(by_touch))
        np.minimum.at(opened, touch_v, np.arange(len(by_touch)))
        opened = np.sort(opened[opened < len(by_touch)])
        placed = touch_v[opened]
        slot = np.empty(n, dtype=np.int64)
        slot[placed] = np.arange(len(placed))
        host_counts = np.bincount(slot[touch_v], minlength=len(placed))
        hosts = touch_f[_stable_order(slot[touch_v])]
        masters = touch_f[opened]
        # ... and fragment-major: each fragment's _incident key order.
        by_fragment = np.argsort(keys % k * len(copy_at) + first)
        rank = np.empty_like(by_fragment)
        rank[by_fragment] = np.arange(len(by_fragment))
        copy_v, copy_f = np.divmod(keys[by_fragment], k)
        del keys, first, by_touch, opened, by_fragment

        # Stored edges: the first occurrence of each (edge, fid), ordered by
        # edge, then fid, then event; one id per distinct edge.
        edge_at = np.flatnonzero(dst >= 0)
        order = _stable_order(fids[edge_at])
        edge = src[edge_at] * n + dst[edge_at]
        order = order[_stable_order(edge[order])]
        edge, edge_f = edge[order], fids[edge_at[order]]
        fresh = np.ones(len(edge), dtype=bool)
        fresh[1:] = edge[1:] != edge[:-1]
        kept = fresh.copy()
        kept[1:] |= edge_f[1:] != edge_f[:-1]
        distinct = edge[fresh]
        if tuples is not None:
            tuples = tuples[edge_at[order[fresh]]]
        edge_ids = np.empty(len(edge), dtype=np.int64)
        edge_ids[order] = np.cumsum(fresh) - 1
        kept = np.sort(order[kept])
        edge_ids, kept = edge_ids[kept], edge_at[kept]
        u, w, edge_f = src[kept], dst[kept], fids[kept]
        # Buckets: per copy, its stored edges in event order.
        loose = np.ones(2 * len(kept), dtype=bool)
        loose[1::2] = u != w  # a self-loop is one bucket entry
        bucket_rank = rank[np.stack([copy_at[2 * kept], copy_at[2 * kept + 1]], axis=1).ravel()[loose]]
        sizes = np.bincount(bucket_rank, minlength=len(rank))
        bucket_edges = np.repeat(edge_ids, 2)[loose][_stable_order(bucket_rank)]
        # The event columns go before any container is built.
        del fids, src, dst, edge_at, order, edge, fresh, kept, copy_at, rank, bucket_rank
        # Fullness: copies holding all of E_v, fragment by fragment, and
        # every copy of an edge-free vertex, in its hosts' order.
        full = (sizes > 0) & (sizes == counts[copy_v])
        edge_free = counts[touch_v] == 0
        full_v = np.concatenate([copy_v[full], touch_v[edge_free]])
        full_f = np.concatenate([copy_f[full], touch_f[edge_free]])
        slot[full_keys] = np.arange(len(full_keys))
        full_counts = np.bincount(slot[full_v], minlength=len(full_keys))
        full_f = full_f[_stable_order(slot[full_v])]
        del full, edge_free, full_v, slot, touch_v, touch_f
        # Per fragment: its copies, its stored edges, its degree streams.
        copy_cut = _fragment_cut(copy_f, k)
        by_edge_f = _stable_order(edge_f)
        edge_cut = _fragment_cut(edge_f[by_edge_f], k)
        stored = edge_ids[by_edge_f]
        if graph.directed:
            out_stream, in_stream, degree_cut = u[by_edge_f], w[by_edge_f], edge_cut
        else:
            stream = np.stack([u, w], axis=1).ravel()[loose]
            stream_f = np.repeat(edge_f, 2)[loose]
            by_stream_f = _stable_order(stream_f)
            out_stream = in_stream = stream[by_stream_f]
            degree_cut = _fragment_cut(stream_f[by_stream_f], k)
        del u, w, edge_f, by_edge_f, loose, edge_ids, copy_f

        # Every set is allocated empty before any is filled: the allocations
        # that pace the cyclic GC then meet empty sets and no long list.
        copies = vertex[copy_v].tolist()
        placed = vertex[placed].tolist()
        full_keys = vertex[full_keys].tolist()
        sets = list(starmap(set, repeat((), len(copies) + len(placed) + len(full_keys))))
        buckets, sets = sets[: len(copies)], sets[len(copies) :]
        host_sets, full_sets = sets[: len(placed)], sets[len(placed) :]
        if tuples is None:
            # One tuple per distinct edge, shared by every copy that stores
            # it, allocated in the order the fragments' edge sets first hold
            # them: the fills below then walk memory mostly in address order.
            first = np.full(len(distinct), len(stored))
            np.minimum.at(first, stored, np.arange(len(stored)))
            by_first = np.argsort(first)
            distinct = distinct[by_first]
            tuples = np.empty(len(distinct), dtype=object)
            tuples[by_first] = np.fromiter(
                zip(vertex[distinct // n].tolist(), vertex[distinct % n].tolist()),
                dtype=object,
                count=len(distinct),
            )
            del first, by_first
        edge = tuples
        del copy_v, distinct, sets, tuples
        _fill(buckets, edge[bucket_edges].tolist(), sizes)
        _fill(host_sets, hosts.tolist(), host_counts)
        _fill(full_sets, full_f.tolist(), full_counts)
        del bucket_edges, hosts, full_f
        self._placement = dict(zip(placed, host_sets))
        self._masters = dict(zip(placed, masters.tolist()))
        self._full = dict(zip(full_keys, full_sets))
        for fid, fragment in enumerate(self.fragments):
            a, b = copy_cut[fid], copy_cut[fid + 1]
            fragment._incident = dict(zip(copies[a:b], buckets[a:b]))
            a, b = edge_cut[fid], edge_cut[fid + 1]
            fragment._edges = set(edge[stored[a:b]].tolist())
            a, b = degree_cut[fid], degree_cut[fid + 1]
            fragment._out_deg = dict(Counter(vertex[out_stream[a:b]].tolist()))
            fragment._in_deg = dict(Counter(vertex[in_stream[a:b]].tolist()))

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
        """Journal and announce one transaction's touched vertices: each
        once, in first-touch order — the order that lays out the listeners'
        dirty sets, whose iteration feeds float sums (DESIGN §8.2).
        Listeners only mark, so hearing at the end is hearing during."""
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

    def border_nodes(self, fid: int) -> Iterator[int]:
        """``F_i.O``: replicated vertices present in fragment ``fid``."""
        for v in self.fragments[fid].vertices():
            if self.is_border(v):
                yield v

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
        touched: Dict[int, None] = {}
        if not self._enter(fid, graph.canonical_edge(*edge), touched):
            return False
        self._notify_all(touched)
        return True

    def _enter(self, fid: int, edge: Edge, touched: Dict[int, None]) -> bool:
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

    def _settle(self, fid: int, edge: Edge, prune: bool, touched: Dict[int, None]) -> None:
        """Per endpoint of an ``edge`` that entered or left ``fid``: fullness,
        pruning of a copy left edge-free (unless it is the last one) and the
        first touch.  A set, not a pair: the order listeners first see the
        endpoints in is part of the bit-identity contract."""
        incident = self.fragments[fid]._incident
        for w in {edge[0], edge[1]}:
            self._refresh_fullness(w, fid)
            if prune and not incident[w] and len(self._placement.get(w, ())) > 1:
                self._prune(fid, w)
            touched[w] = None

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
        touched: Dict[int, None] = {}
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
        in first-touch order, and the fullness of ``v``'s own copies —
        which nothing in between reads — is settled per fragment, last.
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
        touched: Dict[int, None] = {}
        changed = set()  # fragments whose copy of v gained or lost an edge
        try:
            for edge in edges:
                a, b = edge
                u = a if b == v else b
                if lookup:
                    sources = self._holders(v, edge, dst) or self._holders(u, edge, dst)
                # Once v is touched only the far endpoint is left to settle:
                # the walk of _settle in a straight line.
                if u != v and v in touched:
                    new_u = u not in incident
                    if add(edge):
                        if new_u:
                            place(u, dst)
                        refresh(u, dst)
                        touched[u] = None
                        changed.add(dst)
                elif self._enter(dst, edge, touched):
                    changed.add(dst)
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
                    if u != v and v in touched:
                        refresh(u, fid)
                        if not bucket and len(placement.get(u, ())) > 1:
                            prune(fid, u)
                        touched[u] = None
                        if not fragment._incident[v] and len(placement.get(v, ())) > 1:
                            prune(fid, v)
                    else:
                        self._settle(fid, edge, True, touched)
        finally:
            for fid in changed:
                refresh(v, fid)
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
        and the generation counter fire as for any other mutation.
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

    def _refresh_fullness(self, v: int, fid: int) -> None:
        total = (self._graph_facts.get(v) or self._facts(v))[0]
        if total == 0:
            return
        full = self._full.get(v)
        if full is None:
            full = self._full[v] = set()
        if len(self.fragments[fid]._incident.get(v, ())) == total:
            full.add(fid)
        else:
            full.discard(fid)

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
        """Iterate ``(v, fragments holding v)`` pairs."""
        for v, hosts in self._placement.items():
            yield v, frozenset(hosts)

    def copy(self) -> "HybridPartition":
        """Deep copy (fragments, placement, masters); listeners not copied."""
        clone = HybridPartition(self.graph, self.num_fragments)
        clone._graph_facts = dict(self._graph_facts)
        clone._bulk_load(*_fragment_events(self.fragments))
        clone._masters.update(self._masters)
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


def _fragment_events(fragments: List[Fragment]) -> Tuple[np.ndarray, np.ndarray]:
    """Loader events of ``fragments``, each's vertices then its edges, and
    the edges' own tuples: fragment-major, so a copy's index orders are
    those of this traversal, not its source's (DESIGN §8.2)."""
    blocks, tuples = [], []
    for fid, fragment in enumerate(fragments):
        vertices = np.fromiter(fragment._incident, np.int64, len(fragment._incident))
        edges = list(fragment._edges)
        src, dst = np.fromiter(chain.from_iterable(edges), np.int64, 2 * len(edges)).reshape(-1, 2).T
        blocks += [_block(fid, vertices, -1), _block(fid, src, dst)]
        tuples += [None] * len(vertices) + edges
    return np.concatenate(blocks, axis=1), np.fromiter(tuples, object, len(tuples))


def _home_events(graph: Graph, homes: np.ndarray) -> np.ndarray:
    """Per vertex ``v`` in id order: ``v``, then ``incident_edges(v)``, at
    ``homes[v]``."""
    owner, src, dst = graph.incident_stream()
    n = graph.num_vertices
    row = np.bincount(owner, minlength=n)
    bare = np.arange(n) + np.cumsum(row) - row
    at = np.arange(len(owner)) + owner + 1
    events = np.empty((3, n + len(owner)), dtype=np.int64)
    events[0, bare], events[1, bare], events[2, bare] = homes, np.arange(n), -1
    events[0, at], events[1, at], events[2, at] = homes[owner], src, dst
    return events


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


def _first_touches(src: np.ndarray, dst: np.ndarray, n: int) -> np.ndarray:
    """Vertices in the order a walk first meets them: per event ``src[i]``
    when ``dst[i] < 0``, else the set ``{src[i], dst[i]}`` in the order the
    interpreter iterates it — the walk ``_settle`` makes over an edge."""
    walk = np.stack([src, dst], axis=1).ravel()
    first = np.full(n, len(walk))
    at = np.flatnonzero(walk >= 0)
    np.minimum.at(first, walk[at], at)
    first = first[first < len(walk)]
    met = np.zeros(len(walk), dtype=bool)
    met[first] = True
    # Where an edge meets both endpoints first, set order decides.
    both = np.flatnonzero(met[0::2] & met[1::2] & (src != dst))
    pairs = zip(src[both].tolist(), dst[both].tolist())
    flip = both[np.fromiter((next(iter({a, b})) != a for a, b in pairs), bool, len(both))]
    walk[2 * flip], walk[2 * flip + 1] = dst[flip], src[flip]
    return walk[np.sort(first)]
