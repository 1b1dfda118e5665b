"""Fragment execution plans: NumPy views of a :class:`HybridPartition`.

A :class:`HybridPartition` is Python sets and dicts, and the scalar
loops the algorithms started as (now the test suite's differential
oracle) walk it edge by edge.  A :class:`FragmentPlan` compiles the same
information once into flat NumPy arrays — per-fragment vertex/slot
indices, owned-edge lists, role codes, local adjacency in CSR form, and
the master/mirror routing tables used by
:class:`repro.runtime.sync.SyncRoute` — so the algorithms run
as array reductions while reproducing those loops bit for bit.

Bit-identity depends on two ordering contracts that every table here
honors:

* **Orders are canonical.**  ``verts(fid)`` lists a fragment's vertices
  by ascending id and ``edge_arrays(fid)`` its edges by ascending packed
  key ``u * key_base + v``; the copy space, and every table laid out in
  it, is ordered by (fid, id), and a vertex's hosts by fid.  No table
  reads the order a partition index happens to iterate in, so two
  partitions with equal contents compile to equal plans however they
  were built, and any kernel that charges or sends "per vertex copy"
  does so in the order the scalar loop walks, sorted the same way.
* **Plans are immutable snapshots.**  The plan records the partition's
  mutation ``generation`` at compile time; any vertex move bumps the
  counter, making ``valid`` False.  A stale plan is never partially
  updated, so every run observes one consistent partition state.

Plans are cached on the partition object itself (``_kernel_plan``) so
repeated runs over the same partition pay the compilation cost once.  A
plan refers back to its partition weakly, so a dropped partition and its
plan are freed at once rather than left as a cycle for the GC.

Incremental maintenance (DESIGN §15): when a stale plan's delta — the
vertex set reported by ``HybridPartition.mutations_since`` — is small,
:func:`plan_for` *patches* a new plan from the old one instead of
recompiling: routing arrays are memcpy'd, only the dirty vertices' rows
are recomputed, the placement CSR is spliced around them, lazy
per-fragment tables survive for fragments no dirty vertex touches, and
a touched fragment's vertex and edge tables are kept as a base that its
next read patches (clean rows kept, the dirty vertices' rows re-read).
A whole mutation batch is one delta: ``graph_changed`` journals every
vertex whose edges changed, so the partition vouches for the graph's
version bump.  The patched arrays are bit-identical to a fresh compile
(both honor the same canonical orderings).  Past :data:`PATCH_FRACTION`
of the vertex set, past the journal window, for a grown vertex set or a
graph mutated without ``graph_changed``, it falls back to a full
recompile.  A net-empty delta (aborted or rolled-back refinement)
revalidates the existing snapshot in place.
"""

from __future__ import annotations

import weakref
from functools import lru_cache
from itertools import chain
from types import SimpleNamespace
from typing import Dict, NamedTuple, Optional, Tuple

import numpy as np

from repro.graph.digraph import _sorted_unique
from repro.partition.hybrid import HybridPartition

#: integer role codes used in per-fragment ``roles`` arrays
ECUT = 0
VCUT = 1
DUMMY = 2

_EMPTY = np.empty(0, dtype=np.int64)

#: dirty fraction of the vertex set beyond which patching a stale plan
#: stops paying off and plan_for recompiles from scratch
PATCH_FRACTION = 0.25


class _Base(NamedTuple):
    """A fragment's tables from before a patch (``None`` once read
    afresh) and the vertices whose rows may have changed since: sorted
    ids, any superset of the delta (several patches' deltas, OR'd)."""

    verts: Optional[np.ndarray]
    keys: Optional[np.ndarray]
    pair: Optional[Tuple[np.ndarray, np.ndarray]]
    dirty: np.ndarray


class PlanStats:
    """Process-wide counters: how stale plans were brought current."""

    __slots__ = ("recompiled", "patched", "revalidated")

    def __init__(self) -> None:
        self.recompiled = 0
        self.patched = 0
        self.revalidated = 0

    def snapshot(self) -> Tuple[int, int, int]:
        return (self.recompiled, self.patched, self.revalidated)


#: module-level counter instance; read via :func:`plan_stats`
PLAN_STATS = PlanStats()


def plan_stats() -> PlanStats:
    """The process-wide :class:`PlanStats` counters."""
    return PLAN_STATS


def gather_segments(
    indptr: np.ndarray, sel: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Flat data indices of the CSR rows ``sel``, concatenated in order.

    Returns ``(idx, lens)`` where ``data[idx]`` lists the selected rows'
    entries back to back (row-major in ``sel`` order) and ``lens[i]`` is
    the length of row ``sel[i]``.
    """
    sel = np.asarray(sel, dtype=np.int64)
    starts = indptr[sel]
    lens = indptr[sel + 1] - starts
    return gather_runs(starts, lens), lens


def gather_runs(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """Flat indices of the runs ``starts[i] : starts[i] + lens[i]``, back
    to back in order."""
    ends = lens.cumsum()
    if ends.size == 0 or ends[-1] == 0:
        return _EMPTY
    return np.arange(ends[-1], dtype=np.int64) + np.repeat(starts - ends + lens, lens)


def has_keys(stored: np.ndarray, a: np.ndarray, b: np.ndarray, kb: int) -> np.ndarray:
    """Whether each packed key ``a * kb + b`` is in the sorted ``stored``."""
    keys = a * kb + b
    if stored.size == 0:
        return np.zeros(keys.shape, dtype=bool)
    pos = np.searchsorted(stored, keys)
    pos = np.minimum(pos, stored.size - 1)
    return stored[pos] == keys


@lru_cache(maxsize=512)
def triu_pairs(k: int) -> Tuple[np.ndarray, np.ndarray]:
    """Row-major upper-triangle index pairs for a size-``k`` row."""
    return np.triu_indices(k, 1)


class FragmentPlan:
    """Immutable array snapshot of a partition for kernel execution.

    Global routing tables (master fids, replication counts, border
    flags, placement CSR) are built eagerly; per-fragment and
    per-algorithm tables are compiled lazily on first use and memoized
    for the plan's lifetime.
    """

    @property
    def partition(self) -> HybridPartition:
        """The partition this plan was compiled from, held weakly: it
        caches the plan (``_kernel_plan``), and a strong link back would
        leave every dropped partition as cyclic garbage that only a full
        GC pass frees.  Keep the partition while you use its plan."""
        return self._partition()

    @partition.setter
    def partition(self, partition: HybridPartition) -> None:
        self._partition = weakref.ref(partition)

    def __init__(self, partition: HybridPartition) -> None:
        self.partition = partition
        self.graph = partition.graph
        self.num_fragments = partition.num_fragments
        n = self.graph.num_vertices
        self.num_vertices = n
        #: key base for (slot, neighbor) / (u, v) packed int64 keys
        self.key_base = max(1, n)
        #: partition mutation generation this plan was compiled at
        self.generation = partition.generation
        #: graph mutation version this plan was compiled (or patched) at
        self.graph_version = self.graph.version
        PLAN_STATS.recompiled += 1

        # Routing arrays read the partition's placement / master
        # *indexes* (never the fragments), one C-level pass each.
        placement = partition._placement
        count = len(placement)
        ids = np.fromiter(placement, np.int64, count)
        lens = np.fromiter(map(len, placement.values()), np.int64, count)
        fids = np.fromiter(
            chain.from_iterable(placement.values()), np.int64, int(lens.sum())
        )
        #: master worker per vertex (-1 when the vertex is unplaced)
        self.master_of = np.full(n, -1, dtype=np.int64)
        self.master_of[ids] = np.fromiter(
            map(partition.master, placement), np.int64, count
        )
        #: number of fragments holding a copy of each vertex
        self.rep_count = np.zeros(n, dtype=np.int64)
        self.rep_count[ids] = lens
        #: True where the vertex is replicated on more than one fragment
        self.border_mask = self.rep_count > 1
        # Placement CSR: for each vertex, its host fids in ascending order.
        self.place_fids = fids[np.lexsort((fids, np.repeat(ids, lens)))]
        self.place_indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(self.rep_count, out=self.place_indptr[1:])

        # Lazy per-fragment caches.
        self._verts: Dict[int, np.ndarray] = {}
        self._slots: Dict[int, np.ndarray] = {}
        self._roles: Dict[int, np.ndarray] = {}
        self._edge_arrays: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
        self._edge_keys: Dict[int, np.ndarray] = {}
        self._owned: Dict[bool, Dict[int, Tuple[np.ndarray, np.ndarray]]] = {}
        self._cn_lin: Dict[int, np.ndarray] = {}
        self._tc: Dict[int, SimpleNamespace] = {}
        self._gin: Optional[SimpleNamespace] = None
        self._targets: Optional[SimpleNamespace] = None
        self._home_of: Optional[np.ndarray] = None
        self._degrees: Optional[np.ndarray] = None
        self._out_degrees: Optional[np.ndarray] = None
        self._in_degrees: Optional[np.ndarray] = None
        #: the master sync over this plan's copies (``SyncRoute.of``) and
        #: the kernel tables laid out in its copy space (``Kernel.tables``)
        self._sync_route = None
        self._kernel_tables: Dict[str, SimpleNamespace] = {}
        #: pre-patch tables of fragments a delta touched, read on demand
        self._bases: Dict[int, _Base] = {}

    # ------------------------------------------------------------------
    # Invalidation
    # ------------------------------------------------------------------
    @property
    def valid(self) -> bool:
        """True while no partition mutation has occurred since compile."""
        return self.generation == self.partition.generation

    # ------------------------------------------------------------------
    # Per-fragment basics
    # ------------------------------------------------------------------
    def verts(self, fid: int) -> np.ndarray:
        """Fragment ``fid``'s vertices, ascending: its slot order."""
        arr = self._verts.get(fid)
        if arr is None:
            incident = self.partition.fragments[fid]._incident
            base = self._bases.get(fid)
            if base is None or base.verts is None:
                arr = np.sort(np.fromiter(incident, np.int64, len(incident)))
            else:
                # Clean rows stand; a dirty vertex is re-read.
                dirty = base.dirty
                present = map(incident.__contains__, dirty.tolist())
                here = dirty[np.fromiter(present, bool, dirty.size)]
                arr = base.verts[~self._mask(dirty)[base.verts]]
                arr = np.insert(arr, np.searchsorted(arr, here), here)
                self._consume(fid, base._replace(verts=None))
            self._verts[fid] = arr
        return arr

    def _mask(self, vertices: np.ndarray) -> np.ndarray:
        """True at ``vertices``, per vertex id."""
        mask = np.zeros(self.num_vertices, dtype=bool)
        mask[vertices] = True
        return mask

    def _consume(self, fid: int, base: "_Base") -> None:
        """Keep what is left of ``fid``'s base once a table was read off it."""
        if base.verts is None and base.keys is None:
            del self._bases[fid]
        else:
            self._bases[fid] = base

    def copy_space(self) -> Tuple[list, np.ndarray]:
        """The copy space: every vertex copy, ordered by (fid, id) — each
        fragment's first copy (and the total last), and every copy's
        vertex."""
        verts = [self.verts(fid) for fid in range(self.num_fragments)]
        bounds = np.zeros(len(verts) + 1, dtype=np.int64)
        np.cumsum([v.size for v in verts], out=bounds[1:])
        return bounds.tolist(), np.concatenate([_EMPTY, *verts])

    def slot_of(self, fid: int) -> np.ndarray:
        """Dense slot index per vertex id (-1 for vertices not on fid)."""
        arr = self._slots.get(fid)
        if arr is None:
            verts = self.verts(fid)
            arr = np.full(self.num_vertices, -1, dtype=np.int64)
            arr[verts] = np.arange(verts.size, dtype=np.int64)
            self._slots[fid] = arr
        return arr

    def _local_counts(self, fid: int) -> np.ndarray:
        """Distinct local incident edges per slot (a self-loop counts once)."""
        src, dst = self.edge_arrays(fid)
        slots = self.slot_of(fid)
        size = self.verts(fid).size
        return np.bincount(slots[src], minlength=size) + np.bincount(
            slots[dst[src != dst]], minlength=size
        )

    def roles(self, fid: int) -> np.ndarray:
        """Role code (ECUT/VCUT/DUMMY) per slot of fragment ``fid``."""
        arr = self._roles.get(fid)
        if arr is None:
            # Section 2: with a designated home only the home copy
            # computes; without one every copy holding local edges does.
            home = self.home_of()[self.verts(fid)]
            arr = np.where(
                home >= 0,
                np.where(home == fid, ECUT, DUMMY),
                np.where(self._local_counts(fid) > 0, VCUT, DUMMY),
            ).astype(np.int8)
            self._roles[fid] = arr
        return arr

    def edge_list(self, fid: int) -> list:
        """Fragment ``fid``'s edges as tuples, in :meth:`edge_arrays` order."""
        src, dst = self.edge_arrays(fid)
        return list(zip(src.tolist(), dst.tolist()))

    def edge_arrays(self, fid: int) -> Tuple[np.ndarray, np.ndarray]:
        """``(src, dst)`` arrays of the fragment's edges, by ascending
        packed key (:meth:`edge_keys`)."""
        pair = self._edge_arrays.get(fid)
        if pair is None:
            pair = self._edge_arrays[fid] = np.divmod(self.edge_keys(fid), self.key_base)
        return pair

    def edge_keys(self, fid: int) -> np.ndarray:
        """Sorted packed keys ``u * key_base + v`` of the stored edges."""
        keys = self._edge_keys.get(fid)
        if keys is None:
            base = self._bases.get(fid)
            if base is None or base.keys is None:
                edges = self.partition.fragments[fid]._edges
                flat = np.fromiter(chain.from_iterable(edges), np.int64, 2 * len(edges))
                keys = np.sort(flat[0::2] * self.key_base + flat[1::2])
            else:
                keys = self._rebase_edges(fid, base)
            self._edge_keys[fid] = keys
        return keys

    def _rebase_edges(self, fid: int, base: "_Base") -> np.ndarray:
        """Edge keys off a base: an edge that came or went has both ends
        dirty, so every other row stands, and only the current local
        edges between two dirty vertices are merged in."""
        incident = self.partition.fragments[fid]._incident
        dirty = base.dirty.tolist()
        inside = set(dirty)
        edges = {
            (u, w)
            for v in dirty if v in incident
            for u, w in incident[v] if u in inside and w in inside
        }
        flat = np.fromiter(chain.from_iterable(edges), np.int64, 2 * len(edges))
        src, dst = base.pair if base.pair is not None else np.divmod(base.keys, self.key_base)
        mask = self._mask(base.dirty)
        kept = base.keys[~(mask[src] & mask[dst])]
        self._consume(fid, base._replace(keys=None, pair=None))
        return np.sort(np.concatenate([kept, flat[0::2] * self.key_base + flat[1::2]]))

    def has_edges(self, fid: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Vectorized ``fragment.has_edge((a, b))`` on stored-key form.

        Callers must pass endpoints already in the graph's canonical
        stored orientation (directed: as-is; undirected: ``min, max``).
        """
        return has_keys(self.edge_keys(fid), a, b, self.key_base)

    # ------------------------------------------------------------------
    # Graph-level degree tables
    # ------------------------------------------------------------------
    def degrees(self) -> np.ndarray:
        """``graph.degree(v)`` for every vertex (out+in when directed)."""
        if self._degrees is None:
            g = self.graph
            if g.directed:
                self._degrees = self.out_degrees() + self.in_degrees()
            else:
                self._degrees = self.out_degrees()
        return self._degrees

    def out_degrees(self) -> np.ndarray:
        if self._out_degrees is None:
            self._out_degrees = self.graph.out_degrees().astype(np.int64)
        return self._out_degrees

    def in_degrees(self) -> np.ndarray:
        if self._in_degrees is None:
            self._in_degrees = self.graph.in_degrees().astype(np.int64)
        return self._in_degrees

    # ------------------------------------------------------------------
    # Owned edges (scatter responsibility)
    # ------------------------------------------------------------------
    def _edge_owner_table(self, target_aware: bool) -> np.ndarray:
        """Owner flag per stored edge copy, fragments' edge arrays end to end.

        Every copy is packed as ``((u * key_base + v) * 2 + away) * F +
        fid`` and the lot sorted once; the first entry of each edge's
        group is its owner: the lowest holder, or with ``target_aware``
        the target's home (``away`` = 0 there) before any other holder.
        That is the whole preference order: a home is a full copy, so it
        holds every edge into the target, and without a home every
        holder's target copy has a local edge, i.e. bears cost — "else
        the lowest cost-bearing holder" never discriminates.
        """
        nfrag = self.num_fragments
        arrays = [self.edge_arrays(fid) for fid in range(nfrag)]
        packed = np.empty(sum(src.size for src, _ in arrays), dtype=np.int64)
        pos = 0
        for fid, (src, dst) in enumerate(arrays):
            seg = packed[pos : pos + src.size]
            pos += src.size
            np.multiply(src, self.key_base, out=seg)
            seg += dst
            seg *= 2
            if target_aware:
                seg += self.home_of()[dst] != fid
            seg *= nfrag
            seg += fid
        order = np.argsort(packed)  # (edge, fid) pairs are distinct
        packed = packed[order]
        packed //= 2 * nfrag
        first = np.ones(packed.size, dtype=bool)
        first[1:] = packed[1:] != packed[:-1]
        owned = np.zeros(packed.size, dtype=bool)
        owned[order[first]] = True
        return owned

    def owned_edges(
        self, fid: int, target_aware: bool = False
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Edges of ``fid`` it owns (see :meth:`_edge_owner_table`).

        Owner filtering preserves :meth:`edge_arrays` order so per-edge
        charge sequences match the scalar scatter loop exactly.
        """
        flag = bool(target_aware)
        cache = self._owned.get(flag)
        if cache is None:
            owned = self._edge_owner_table(flag)
            cache = {}
            pos = 0
            for f in range(self.num_fragments):
                src, dst = self.edge_arrays(f)
                mine = owned[pos : pos + src.size]
                pos += src.size
                cache[f] = (src[mine], dst[mine])
            self._owned[flag] = cache
        return cache[fid]

    # ------------------------------------------------------------------
    # Algorithm-specific tables (the kernels' own live in ``_kernel_tables``)
    # ------------------------------------------------------------------
    def cn_local_in_counts(self, fid: int) -> np.ndarray:
        """Unique local in-neighbor count per slot (CN charge basis)."""
        counts = self._cn_lin.get(fid)
        if counts is None:
            src, dst = self.edge_arrays(fid)
            if self.graph.directed:
                ev, en = dst, src
            else:
                loop = src != dst
                ev = np.concatenate([src, dst[loop]]) if src.size else _EMPTY
                en = np.concatenate([dst, src[loop]]) if src.size else _EMPTY
            slots = self.slot_of(fid)
            size = self.verts(fid).size
            if ev.size:
                keys = _sorted_unique(slots[ev] * self.key_base + en)
                counts = np.bincount(keys // self.key_base, minlength=size)
            else:
                counts = np.zeros(size, dtype=np.int64)
            self._cn_lin[fid] = counts
        return counts

    def tc_tables(self, fid: int) -> SimpleNamespace:
        """Triangle-counting neighbor tables per slot.

        ``nbrs`` (CSR via ``indptr``) lists each slot's unique non-self
        local neighbors in ascending id order (the sorted inlist payload
        and its charge basis).  ``onbrs`` (CSR via ``oindptr``) keeps only
        neighbors ranked above the pivot under the degree-ordering
        ``(degree, id)``, sorted by that rank — matching the scalar
        ``sorted(..., key=order)`` wedge enumeration.
        """
        ns = self._tc.get(fid)
        if ns is None:
            src, dst = self.edge_arrays(fid)
            keep = src != dst
            a = src[keep]
            b = dst[keep]
            ev = np.concatenate([a, b]) if a.size else _EMPTY
            en = np.concatenate([b, a]) if a.size else _EMPTY
            slots = self.slot_of(fid)
            verts = self.verts(fid)
            size = verts.size
            kb = self.key_base
            if ev.size:
                keys = _sorted_unique(slots[ev] * kb + en)
                tslot = keys // kb
                tnbr = keys % kb
            else:
                tslot = _EMPTY
                tnbr = _EMPTY
            counts = np.bincount(tslot, minlength=size)
            indptr = np.zeros(size + 1, dtype=np.int64)
            np.cumsum(counts, out=indptr[1:])
            degs = self.degrees()
            okey = degs[tnbr] * kb + tnbr if tnbr.size else _EMPTY
            pivot_key = degs[verts] * kb + verts if size else _EMPTY
            above = okey > pivot_key[tslot] if tnbr.size else np.zeros(0, bool)
            oslot = tslot[above]
            onbr = tnbr[above]
            okeep = okey[above]
            order = np.lexsort((okeep, oslot))
            oslot = oslot[order]
            onbr = onbr[order]
            ocounts = np.bincount(oslot, minlength=size)
            oindptr = np.zeros(size + 1, dtype=np.int64)
            np.cumsum(ocounts, out=oindptr[1:])
            ns = SimpleNamespace(
                indptr=indptr,
                nbrs=tnbr,
                counts=counts,
                oindptr=oindptr,
                onbrs=onbr,
                ocounts=ocounts,
            )
            self._tc[fid] = ns
        return ns

    def home_of(self) -> np.ndarray:
        """``partition.designated_home(v)`` per vertex (-1 when v-cut).

        A copy is *full* when its local edge count equals ``|E_v|``; the
        home is the master if the master copy is full, else the lowest
        full fragment; an edge-free vertex is at home on its master.
        """
        if self._home_of is None:
            # |E_v|: the degree counts a self-loop twice (out + in, or both
            # halves of an undirected row)
            ea = self.graph.edge_array()
            total = self.degrees().copy()
            total[ea[ea[:, 0] == ea[:, 1], 0]] -= 1
            nfrag = self.num_fragments
            lowest = np.full(self.num_vertices, nfrag, dtype=np.int64)
            at_master = total == 0
            for fid in reversed(range(nfrag)):
                verts = self.verts(fid)
                full = verts[self._local_counts(fid) == total[verts]]
                lowest[full] = fid
                at_master[full[self.master_of[full] == fid]] = True
            home = np.where(at_master, self.master_of, lowest)
            home[home == nfrag] = -1
            self._home_of = home
        return self._home_of

    def query_targets(self) -> SimpleNamespace:
        """Who answers an edge-existence query about each vertex (CSR).

        Row ``v`` of ``fids`` (via ``indptr``) is ``[home_of[v]]`` when v
        is e-cut — the home holds all of v's edges — else v's cost-bearing
        copies (dummy copies hold only duplicates), fids ascending: the
        order TC sends its queries in, hence which message a seeded fault
        doubles.
        """
        if self._targets is None:
            home = self.home_of()
            vcut = np.flatnonzero((home < 0) & (self.rep_count > 0))
            at, lens = gather_segments(self.place_indptr, vcut)
            fids = self.place_fids[at]
            owner = np.repeat(vcut, lens)
            bearing = np.zeros(fids.size, dtype=bool)
            for fid in range(self.num_fragments):
                at = np.flatnonzero(fids == fid)
                slots = self.slot_of(fid)[owner[at]]
                bearing[at] = self.roles(fid)[slots] != DUMMY
            ecut = np.flatnonzero(home >= 0)
            owner = np.concatenate([ecut, owner[bearing]])
            fids = np.concatenate([home[ecut], fids[bearing]])
            indptr = np.zeros(self.num_vertices + 1, dtype=np.int64)
            np.cumsum(np.bincount(owner, minlength=self.num_vertices), out=indptr[1:])
            self._targets = SimpleNamespace(
                indptr=indptr, fids=fids[np.argsort(owner, kind="stable")]
            )
        return self._targets

    def master_values(self, state: Dict[int, np.ndarray]) -> dict:
        """``{v: state[master fid][slot of v]}`` over every placed vertex.

        ``state`` holds one per-slot array per fragment.  Keys ascend.
        """
        ids = np.flatnonzero(self.rep_count)
        masters = self.master_of[ids]
        out = np.empty(ids.size, dtype=state[0].dtype)
        for fid, arr in state.items():
            at = masters == fid
            out[at] = arr[self.slot_of(fid)[ids[at]]]
        return dict(zip(ids.tolist(), out.tolist()))

    def triu_pairs(self, k: int) -> Tuple[np.ndarray, np.ndarray]:
        """Row-major upper-triangle index pairs for a size-``k`` row."""
        return triu_pairs(k)

    def global_in_csr(self) -> SimpleNamespace:
        """Graph-level unique in-neighbor CSR (ids ascending per row).

        For every vertex this is the union of its in-neighbor lists over
        all bearing copies: non-dummy v-cut copies jointly cover every
        incident edge and an e-cut home holds all of them, so the merge
        performed at a CN/TC master equals this global row.
        """
        if self._gin is None:
            g = self.graph
            n = self.num_vertices
            kb = self.key_base
            ea = g.edge_array()
            if ea.size:
                s = ea[:, 0].astype(np.int64)
                d = ea[:, 1].astype(np.int64)
                if g.directed:
                    keys = _sorted_unique(d * kb + s)
                else:
                    loop = s != d
                    keys = _sorted_unique(
                        np.concatenate([d * kb + s, (s * kb + d)[loop]])
                    )
                tv = keys // kb
                tn = keys % kb
            else:
                tv = _EMPTY
                tn = _EMPTY
            counts = np.bincount(tv, minlength=n)
            indptr = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(counts, out=indptr[1:])
            self._gin = SimpleNamespace(indptr=indptr, nbrs=tn, counts=counts)
        return self._gin


def _touched_fragments(old: FragmentPlan, rows: Dict[int, list]) -> set:
    """Fragments hosting a dirty vertex before or after the delta."""
    touched = set()
    indptr = old.place_indptr
    fids = old.place_fids
    for v, row in rows.items():
        touched.update(fids[indptr[v] : indptr[v + 1]].tolist())
        touched.update(row)
    return touched


def _carry(old: FragmentPlan, new: FragmentPlan, touched: set, dirty: list) -> None:
    """Give ``new`` (possibly ``old`` itself) the lazy tables of ``old``
    that the delta leaves standing.

    Untouched fragments keep every table: their vertex and edge state
    cannot change without a member being notified.  A touched
    fragment's vertex and edge tables become a :class:`_Base`, read on
    demand, until its accumulated dirty set passes
    :data:`PATCH_FRACTION`; its other tables go.  Owner tables, the
    query targets and everything laid out in the copy space go too:
    one sort or one compile rebuilds them.  Graph-level tables go when
    the graph version moved; ``home_of`` keeps every clean row.
    """
    ids = np.asarray(dirty, dtype=np.int64)
    limit = max(1, int(PATCH_FRACTION * old.num_vertices))
    bases = {f: b for f, b in old._bases.items() if f not in touched}
    for f in touched:
        verts, keys, pair = old._verts.get(f), old._edge_keys.get(f), old._edge_arrays.get(f)
        seen = ids
        base = old._bases.get(f)
        if base is not None:  # holds exactly the tables not read since
            verts = base.verts if verts is None else verts
            keys, pair = (base.keys, base.pair) if keys is None else (keys, pair)
            seen = _sorted_unique(np.concatenate([base.dirty, ids]))
        if seen.size <= limit and (verts is not None or keys is not None):
            bases[f] = _Base(verts, keys, pair, seen)
    new._bases = bases
    for name in ("_verts", "_slots", "_roles", "_edge_arrays", "_edge_keys", "_cn_lin", "_tc"):
        setattr(new, name, {f: a for f, a in getattr(old, name).items() if f not in touched})
    new._owned = {}
    new._targets = None
    new._sync_route = None
    new._kernel_tables = {}
    moved = old.graph_version != old.graph.version
    for name in ("_gin", "_degrees", "_out_degrees", "_in_degrees"):
        setattr(new, name, None if moved else getattr(old, name))
    new.graph_version = old.graph.version
    new._home_of = None if old._home_of is None else old._home_of.copy()
    if new._home_of is not None:
        partition = new.partition
        for v in dirty:
            home = partition.designated_home(v)
            new._home_of[v] = -1 if home is None else home


def _patch_plan(old: FragmentPlan, partition: HybridPartition) -> Optional[FragmentPlan]:
    """Patch a stale plan into a current one; None when patching can't apply.

    Returns either a *new* :class:`FragmentPlan` whose arrays are
    bit-identical to a fresh compile (routing rows of dirty vertices
    recomputed, everything else memcpy'd, placement CSR spliced), or —
    when the journalled delta turns out to be a net no-op — the *same*
    plan object revalidated in place.  A graph version bump is patched
    across only when the partition's journal vouches for it
    (``graph_changed`` saw the current version) and the vertex set, the
    packed keys' base, is unchanged.
    """
    graph = partition.graph
    if old.graph is not graph or old.num_vertices != graph.num_vertices:
        return None
    version = graph.version
    if old.graph_version != version and partition._graph_version != version:
        return None  # the graph moved behind the journal's back
    delta = partition.mutations_since(old.generation)
    if delta is None:
        return None
    n = old.num_vertices
    if len(delta) > max(1, int(PATCH_FRACTION * n)):
        return None
    dirty = sorted(v for v in delta if 0 <= v < n)

    # Recompute the routing rows of every dirty vertex.
    rows: Dict[int, list] = {}
    masters: Dict[int, int] = {}
    old_indptr = old.place_indptr
    old_fids = old.place_fids
    changed = False
    for v in dirty:
        hosts = partition._placement.get(v)
        if hosts:
            row = sorted(hosts)
            master = partition._masters[v]
        else:
            row = []
            master = -1
        rows[v] = row
        masters[v] = master
        if not changed:
            old_row = old_fids[old_indptr[v] : old_indptr[v + 1]]
            changed = (
                master != old.master_of[v] or row != old_row.tolist()
            )
    touched = _touched_fragments(old, rows)

    if not changed and old.graph_version == version:
        # Net-empty delta (an aborted or rolled-back refinement): the
        # routing tables still hold.
        # Fragment-internal state (edge sets, roles) may have churned and
        # reverted only in aggregate, so the tables are carried as for a
        # patch.  A moved graph is no net-empty delta: it is patched.
        _carry(old, old, touched, dirty)
        old.generation = partition.generation
        PLAN_STATS.revalidated += 1
        return old

    new = FragmentPlan.__new__(FragmentPlan)
    new.partition = partition
    new.graph = graph
    new.num_fragments = partition.num_fragments
    new.num_vertices = n
    new.key_base = old.key_base
    new.generation = partition.generation

    master_of = old.master_of.copy()
    rep_count = old.rep_count.copy()
    border_mask = old.border_mask.copy()
    counts = np.diff(old_indptr)
    for v in dirty:
        row = rows[v]
        master_of[v] = masters[v]
        rep_count[v] = len(row)
        border_mask[v] = len(row) > 1
        counts[v] = len(row)
    place_indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=place_indptr[1:])
    place_fids = np.empty(int(place_indptr[-1]), dtype=np.int64)
    # Splice the placement CSR: bulk-copy each unchanged run of rows,
    # write the recomputed rows of dirty vertices in between.
    prev = 0
    for v in dirty:
        if prev < v:
            place_fids[place_indptr[prev] : place_indptr[v]] = old_fids[
                old_indptr[prev] : old_indptr[v]
            ]
        row = rows[v]
        if row:
            place_fids[place_indptr[v] : place_indptr[v + 1]] = row
        prev = v + 1
    if prev < n:
        place_fids[place_indptr[prev] : place_indptr[n]] = old_fids[
            old_indptr[prev] : old_indptr[n]
        ]
    new.master_of = master_of
    new.rep_count = rep_count
    new.border_mask = border_mask
    new.place_fids = place_fids
    new.place_indptr = place_indptr
    _carry(old, new, touched, dirty)
    PLAN_STATS.patched += 1
    return new


def plan_for(partition: HybridPartition, incremental: bool = True) -> FragmentPlan:
    """Return a current plan for ``partition``, patching when possible.

    A cached valid plan is returned as-is.  Staleness is a generation
    compare — no listener registration, so a cached plan adds nothing to
    refinement mutations and a warm partition revalidates in O(1).  A
    stale plan whose dirty region (per the partition's mutation journal)
    covers at most :data:`PATCH_FRACTION` of the vertices is
    delta-patched — O(dirty) row recomputation plus array memcpy instead
    of re-reading the whole placement index — with arrays bit-identical
    to a fresh compile, also across a graph version bump the
    partition's journal vouches for (a mutation batch applied through
    ``apply_mutations``).  Everything else (``incremental=False``,
    journal window exceeded, vertex set grown, graph mutated without
    ``graph_changed``, large delta) recompiles from scratch.
    """
    plan = getattr(partition, "_kernel_plan", None)
    if plan is not None and plan.valid:
        return plan
    if plan is not None and incremental:
        patched = _patch_plan(plan, partition)
        if patched is not None:
            partition._kernel_plan = patched
            return patched
    plan = FragmentPlan(partition)
    partition._kernel_plan = plan
    return plan
