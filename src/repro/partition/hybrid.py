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
from typing import Callable, Collection, Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

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
        part._bulk_load(
            (fid, (v,), graph.incident_edges(v)) for v, fid in enumerate(homes)
        )
        for v, fid in enumerate(homes):
            part._masters[v] = fid
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

        def batches():
            for edge, fid in assignment.items():
                fid = int(fid)
                if not 0 <= fid < num_fragments:
                    raise ValueError(f"assignment for edge {edge} out of range")
                if not graph.has_edge(*edge):
                    raise ValueError(f"edge {edge} does not exist in the graph")
                yield fid, (), (graph.canonical_edge(*edge),)
            # Isolated vertices still need a home.
            for v in graph.vertices:
                if v not in part._placement:
                    yield v % num_fragments, (v,), ()

        part._bulk_load(batches())
        return part

    def _bulk_load(
        self, batches: Iterable[Tuple[int, Iterable[int], Iterable[Edge]]]
    ) -> None:
        """Fill this *empty* partition from ``(fid, vertices, edges)`` batches.

        The constructor body behind ``from_*_assignment``, :meth:`copy` and
        deserialization.  A batch puts its vertices, then its (canonical,
        existing) edges, into fragment ``fid`` with the container insertions
        ``add_vertex_to`` / ``add_edge_to`` would make, in their order —
        index iteration orders feed float sums downstream (DESIGN §8.2);
        only the per-vertex ``_full`` sets, read through ``in`` / ``min`` /
        ``==`` alone, are order-free — but fullness is computed once per
        copy at the end and nobody is notified: an in-place restore wakes
        its own listeners.
        """
        full, place = self._full, self._place
        for fid, vertices, edges in batches:
            fragment = self.fragments[fid]
            incident = fragment._incident
            for v in vertices:
                if fragment._add_vertex(v):
                    place(v, fid)
                    if self._facts(v)[0] == 0:
                        full.setdefault(v, set()).add(fid)
            for edge in edges:
                u, w = edge
                new_u, new_w = u not in incident, w not in incident
                if not fragment._add_edge(edge):
                    continue
                if new_u:
                    place(u, fid)
                if new_w:
                    place(w, fid)
                # Same key order as add_edge_to's endpoint-set walk.
                for x in {u, w}:
                    if x not in full:
                        full[x] = set()
        for fragment in self.fragments:
            fid = fragment.fid
            for v, bucket in fragment._incident.items():
                if bucket and len(bucket) == self._facts(v)[0]:
                    full[v].add(fid)

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

        Incremented on every copy-set change; :func:`repro.runtime.plan.get_plan`
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
        """Reassign the master of ``v`` to fragment ``fid`` (MAssign).

        The fragment, not the placement index, decides whether ``fid``
        holds a copy: a stale index entry (state corruption, as
        ``add_vertex_to`` heals) is restored rather than refused.
        """
        if fid not in self._placement.get(v, ()):
            if not self.fragments[fid].has_vertex(v):
                raise ValueError(f"fragment {fid} holds no copy of vertex {v}")
            self.add_vertex_to(fid, v)
        if self._masters.get(v) != fid:
            self._masters[v] = fid
            self._notify(v)

    # ------------------------------------------------------------------
    # Mutation primitives
    # ------------------------------------------------------------------
    def add_vertex_to(self, fid: int, v: int) -> bool:
        """Ensure a copy of ``v`` in fragment ``fid``; True if newly added.

        Also heals a stale placement index: if the fragment already holds
        the copy but ``_placement`` does not record it (state corruption,
        e.g. injected by chaos tests), the index entry is restored so a
        subsequent ``set_master(v, fid)`` cannot fail against reality.
        """
        added = self.fragments[fid]._add_vertex(v)
        stale = not added and fid not in self._placement.get(v, ())
        if added or stale:
            self._place(v, fid)
            if self._facts(v)[0] == 0:
                self._full.setdefault(v, set()).add(fid)
            elif stale:
                self._refresh_fullness(v, fid)
            self._notify(v)
        return added

    def remove_vertex_from(self, fid: int, v: int) -> None:
        """Remove the (edge-free) copy of ``v`` from fragment ``fid``."""
        if self.fragments[fid].has_vertex(v):
            self._prune(fid, v)
            self._notify(v)

    def _prune(self, fid: int, v: int) -> None:
        """Drop the edge-free copy of ``v`` at ``fid`` from fragment and indexes.

        An index that runs out of hosts asks the fragments before ``v`` is
        declared gone: one that lost track of a copy (state corruption, as
        ``add_vertex_to`` heals) must not take a live vertex's master.
        """
        self.fragments[fid]._remove_vertex(v)
        hosts = self._placement.get(v)
        if hosts is not None:
            hosts.discard(fid)
        full = self._full.get(v)
        if full is not None:
            full.discard(fid)
        if not hosts:
            hosts = {f.fid for f in self.fragments if v in f._incident}
            if not hosts:
                self._placement.pop(v, None)
                self._masters.pop(v, None)
                self._full.pop(v, None)
                return
            self._placement[v] = hosts
        if self._masters.get(v) == fid:
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
        # Fragment-major: the clone's index orders are those of this
        # traversal, not the source's (DESIGN §8.2).
        clone._bulk_load(
            (fid, fragment.vertices(), fragment.edges())
            for fid, fragment in enumerate(self.fragments)
        )
        clone._masters.update(self._masters)
        return clone

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        sizes = ", ".join(
            f"F{f.fid}(|V|={f.num_vertices},|E|={f.num_edges})" for f in self.fragments
        )
        return f"HybridPartition[{sizes}]"
