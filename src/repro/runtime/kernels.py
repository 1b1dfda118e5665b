"""The kernel table: each algorithm's compute, defined once, over the copy space.

A :class:`Kernel` row declares what its compute reads and writes next to
the function that does it.  Every table is laid out in the plan's *copy
space* (:class:`~repro.runtime.sync.SyncRoute`: every vertex copy,
ordered by (fid, id)) and indexes it, so a
fragment's rows are a contiguous run of each table and one ``compute``
over several fragments' rows returns the concatenation of their per-
fragment results.  ``Cluster.map`` therefore makes one call per map over
the whole copy space; a shm worker (:mod:`repro.runtime.parallel`) calls
*the same function object* on its fragment's row slice (:meth:`Kernel.rows`).
Everything with an ordering or randomness contract — charges, sends,
sync, snapshots, which fragments have work — stays in the algorithm,
parent-side.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from repro.runtime.plan import DUMMY, ECUT, FragmentPlan
from repro.runtime.plan import gather_runs, gather_segments, has_keys, triu_pairs

_EMPTY = np.empty(0, dtype=np.int64)


@dataclass
class Kernel:
    """One row of :data:`KERNELS`.

    ``build(plan)`` makes the namespace of copy-space tables; ``layout``
    names the ones ``compute`` reads (what shm publishes), each with its
    row space and the space its values index, if any — keys of the
    namespace's ``cuts``, per-fragment row boundaries.  ``size(tables)``
    is the length of the state and output buffers, ``out`` and ``state``
    their dtypes, ``fill`` what an idle fragment's rows hold in each
    output.  ``compute(tables, *state, *args)`` returns the outputs (a
    single one bare); state past the declared buffers is parent-only and
    reaches an in-process call alone.
    """

    name: str
    compute: Callable
    build: Callable[[FragmentPlan], SimpleNamespace]
    layout: Dict[str, Tuple[str, Optional[str]]]
    size: Callable[[SimpleNamespace], int]
    out: tuple
    state: tuple = ()
    fill: float = 0

    @property
    def reads(self) -> Tuple[str, ...]:
        """The tables ``compute`` touches."""
        return tuple(self.layout)

    def tables(self, plan: FragmentPlan) -> SimpleNamespace:
        """The plan's copy-space tables, built on first use and cached next
        to its sync route (and dropped with it)."""
        tables = plan._kernel_tables.get(self.name)
        if tables is None:
            tables = plan._kernel_tables[self.name] = self.build(plan)
        return tables

    def rows(self, tables: SimpleNamespace, fid: int) -> SimpleNamespace:
        """Fragment ``fid``'s rows of ``tables``, their indices rebased to
        the fragment: what a shm worker's ``compute`` sees."""
        cuts = tables.cuts
        cols = {}
        for name, (space, ref) in self.layout.items():
            col = getattr(tables, name)[cuts[space][fid] : cuts[space][fid + 1]]
            cols[name] = col - cuts[ref][fid] if ref else col
        copies = cuts["copies"][fid + 1] - cuts["copies"][fid]
        return SimpleNamespace(copies=copies, **cols)

    def all_tables(self, plan: FragmentPlan) -> list:
        """:meth:`rows` of every fragment, indexed by fid."""
        tables = self.tables(plan)
        return [self.rows(tables, fid) for fid in range(plan.num_fragments)]


def _bounds(sizes) -> list:
    """Row boundaries of consecutive runs of ``sizes`` rows."""
    return np.concatenate(([0], np.cumsum(sizes, dtype=np.int64))).tolist()


def _stacked(
    plan: FragmentPlan, offsets: list, both_ways: bool
) -> Tuple[np.ndarray, np.ndarray]:
    """Every fragment's stored edges as copy-space ``(from, to)`` pairs,
    fragment-major in ``edge_arrays`` (packed-key) order; with ``both_ways`` the
    reverses follow each fragment's edges (a self-loop's once)."""
    froms, tos = [_EMPTY], [_EMPTY]
    for fid in range(plan.num_fragments):
        src, dst = plan.edge_arrays(fid)
        if both_ways:
            loop = src != dst
            src, dst = np.concatenate([src, dst[loop]]), np.concatenate([dst, src[loop]])
        slots = plan.slot_of(fid)
        froms.append(slots[src] + offsets[fid])
        tos.append(slots[dst] + offsets[fid])
    return np.concatenate(froms), np.concatenate(tos)


def _bearing(plan: FragmentPlan) -> np.ndarray:
    """Per copy: whether it is cost-bearing (not a dummy)."""
    roles = [plan.roles(fid) for fid in range(plan.num_fragments)]
    return np.concatenate([np.empty(0, np.int8), *roles]) != DUMMY


def pr_tables(plan: FragmentPlan) -> SimpleNamespace:
    """PageRank scatter over the owned edges (``target_aware`` when directed).

    ``src``/``dst`` expand each owned edge into its scatter targets in the
    scalar loop's order: directed edges contribute ``src -> dst``;
    undirected ones both directions, interleaved per edge (self-loops
    once).  ``deg`` is the source's scatter degree (its out-degree, since
    an undirected CSR stores both directions) and ``ops`` counts the
    contributions each copy receives.
    """
    offsets, _ = plan.copy_space()
    srcs, dsts, degs = [_EMPTY], [_EMPTY], [np.empty(0)]
    for fid in range(plan.num_fragments):
        s, d = plan.owned_edges(fid, plan.graph.directed)
        if not plan.graph.directed and s.size:
            s, d = np.stack([s, d], 1).ravel(), np.stack([d, s], 1).ravel()
            keep = np.ones(s.size, dtype=bool)
            keep[1::2] = s[0::2] != d[0::2]
            s, d = s[keep], d[keep]
        slots = plan.slot_of(fid)
        srcs.append(slots[s] + offsets[fid])
        dsts.append(slots[d] + offsets[fid])
        degs.append(plan.out_degrees()[s].astype(np.float64))
    dst = np.concatenate(dsts)
    return SimpleNamespace(
        src=np.concatenate(srcs),
        dst=dst,
        deg=np.concatenate(degs),
        ops=np.bincount(dst, minlength=offsets[-1]).astype(np.float64),
        copies=offsets[-1],
        cuts={"copies": offsets, "scatter": _bounds([d.size for d in dsts[1:]])},
    )


def pr_scatter(t: SimpleNamespace, ranks: np.ndarray) -> np.ndarray:
    """Rank mass scattered along the owned edges, per copy."""
    sums = np.zeros(ranks.size)
    # np.add.at applies updates sequentially in index order, which is the
    # scalar scatter order — every intermediate rounding step matches the
    # dict accumulation.
    np.add.at(sums, t.dst, ranks[t.src] / t.deg)
    return sums


def wcc_tables(plan: FragmentPlan) -> SimpleNamespace:
    """Per (bearing copy v, incident edge) entries for label relaxation:
    ``rel_v`` is v's copy, ``rel_u`` the other endpoint's; ``counts`` per
    copy reproduce the scalar per-edge charges, ``border`` marks the
    copies of replicated vertices."""
    offsets, copy_id = plan.copy_space()
    ent_v, ent_u = _stacked(plan, offsets, True)
    keep = _bearing(plan)[ent_v]
    rel_v = ent_v[keep]
    counts = np.bincount(rel_v, minlength=offsets[-1])
    return SimpleNamespace(
        rel_v=rel_v,
        rel_u=ent_u[keep],
        counts=counts.astype(np.float64),
        border=plan.border_mask[copy_id],
        copies=offsets[-1],
        cuts={
            "copies": offsets,
            "entries": np.concatenate(([0], np.cumsum(counts)))[offsets].tolist(),
        },
    )


def wcc_relax(t: SimpleNamespace, labels: np.ndarray) -> np.ndarray:
    """Smallest label among each bearing copy and its local neighbors."""
    best = labels.copy()
    if t.rel_v.size:
        np.minimum.at(best, t.rel_v, labels[t.rel_u])
    return best


def sssp_tables(plan: FragmentPlan) -> SimpleNamespace:
    """Local out-adjacency per copy (undirected: both ways): copy ``c``'s
    out-edges are ``targets[starts[c] : starts[c] + deg[c]]``."""
    offsets, _ = plan.copy_space()
    ev, et = _stacked(plan, offsets, not plan.graph.directed)
    deg = np.bincount(ev, minlength=offsets[-1])
    ends = np.cumsum(deg)
    return SimpleNamespace(
        starts=ends - deg,
        deg=deg,
        targets=et[np.argsort(ev, kind="stable")],
        bearing=_bearing(plan),
        copies=offsets[-1],
        cuts={"copies": offsets, "edges": np.concatenate(([0], ends))[offsets].tolist()},
    )


def sssp_frontier(
    t: SimpleNamespace, active: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(sel, idx, lens)``: the active bearing copies, the flat indices
    of their out-edges in ``t.targets`` and each one's out-degree."""
    sel = (active & t.bearing).nonzero()[0]
    lens = t.deg[sel]
    return sel, gather_runs(t.starts[sel], lens), lens


def sssp_relax(
    t: SimpleNamespace,
    dist: np.ndarray,
    active: np.ndarray,
    frontier: Optional[tuple] = None,
) -> np.ndarray:
    """Tentative distances after relaxing the frontier's out-edges;
    ``frontier`` is :func:`sssp_frontier` of the same arguments, which the
    run has already (it charges the clock from it) and a worker has not."""
    sel, idx, lens = frontier or sssp_frontier(t, active)
    best = np.full(dist.size, np.inf)
    np.minimum.at(best, t.targets[idx], np.repeat(dist[sel], lens) + 1.0)
    return best


def wedges(
    nbrs: np.ndarray, starts: np.ndarray, ks: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every wedge ``(a, b)`` of the pivots whose oriented neighbors are
    ``nbrs[starts[i] : starts[i] + ks[i]]``, with its pivot's index ``i``:
    pivot-major, row-major pairs within a pivot (the scalar i < j loop)."""
    wa, wb, rows = [_EMPTY], [_EMPTY], [_EMPTY]
    for row, (start, k) in enumerate(zip(starts.tolist(), ks.tolist())):
        if k >= 2:
            seg = nbrs[start : start + k]
            ii, jj = triu_pairs(k)
            wa.append(seg[ii])
            wb.append(seg[jj])
            rows.append(np.full(ii.size, row, dtype=np.int64))
    return np.concatenate(wa), np.concatenate(wb), np.concatenate(rows)


def closing(
    ekeys: np.ndarray, a: np.ndarray, b: np.ndarray, kb: int, directed: bool, fids
) -> np.ndarray:
    """Whether fragment ``fids`` (one, or one per wedge) stores the
    closing edge of each wedge ``(a, b)``, either way round, by the sorted
    keys ``ekeys`` of :func:`tc_tables`."""
    at = np.asarray(fids) * kb
    if directed:
        return has_keys(ekeys, at + a, b, kb) | has_keys(ekeys, at + b, a, kb)
    return has_keys(ekeys, at + np.minimum(a, b), np.maximum(a, b), kb)


def tc_tables(plan: FragmentPlan) -> SimpleNamespace:
    """The e-cut pivots: their copies (``eslots``, ascending), fragments,
    vertices, oriented-neighbor rows (``onbrs[starts[i] : starts[i] +
    ks[i]]``), and every fragment's stored edges as sorted keys ``(fid *
    kb + u) * kb + v`` — one sorted run per fragment, fragments ascending."""
    offsets, copy_id = plan.copy_space()
    kb = plan.key_base
    eslots, ks, onbrs, ekeys = [_EMPTY], [_EMPTY], [_EMPTY], [_EMPTY]
    for fid in range(plan.num_fragments):
        t = plan.tc_tables(fid)
        slots = np.flatnonzero(plan.roles(fid) == ECUT)
        eslots.append(slots + offsets[fid])
        ks.append(t.ocounts[slots])
        onbrs.append(t.onbrs[gather_segments(t.oindptr, slots)[0]])
        ekeys.append(fid * kb * kb + plan.edge_keys(fid))
    ks_all = np.concatenate(ks)
    ends = np.cumsum(ks_all)
    pivots = _bounds([e.size for e in eslots[1:]])
    eslots = np.concatenate(eslots)
    return SimpleNamespace(
        eslots=eslots,
        fids=np.repeat(np.arange(plan.num_fragments), np.diff(pivots)),
        verts=copy_id[eslots],
        starts=ends - ks_all,
        ks=ks_all,
        onbrs=np.concatenate(onbrs),
        ekeys=np.concatenate(ekeys),
        copies=offsets[-1],
        cuts={
            "copies": offsets,
            "pivots": pivots,
            "onbrs": _bounds([o.size for o in onbrs[1:]]),
            "ekeys": _bounds([e.size for e in ekeys[1:]]),
        },
    )


def tc_missed(
    t: SimpleNamespace, kb: int, directed: bool
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The e-cut wedges whose closing edge the pivot's fragment does not
    store, as ``(a, b, pivot copy)``; the other ``size(t) - a.size`` are
    triangles."""
    wa, wb, row = wedges(t.onbrs, t.starts, t.ks)
    miss = ~closing(t.ekeys, wa, wb, kb, directed, t.fids[row])
    return wa[miss], wb[miss], t.eslots[row[miss]]


def cn_tables(plan: FragmentPlan) -> SimpleNamespace:
    """Global in-degree and role code per copy."""
    offsets, copy_id = plan.copy_space()
    roles = [plan.roles(fid) for fid in range(plan.num_fragments)]
    return SimpleNamespace(
        indeg=plan.in_degrees()[copy_id],
        roles=np.concatenate([np.empty(0, np.int8), *roles]),
        copies=offsets[-1],
        cuts={"copies": offsets},
    )


def cn_eligible(t: SimpleNamespace, theta: float) -> np.ndarray:
    """Bearing copies whose in-degree passes the ``theta`` threshold."""
    return (t.indeg <= theta) & (t.roles != DUMMY)


def _copies(t: SimpleNamespace) -> int:
    return t.copies


KERNELS: Dict[str, Kernel] = {
    k.name: k
    for k in (
        Kernel(
            "pr",
            pr_scatter,
            pr_tables,
            {
                "src": ("scatter", "copies"),
                "dst": ("scatter", "copies"),
                "deg": ("scatter", None),
            },
            _copies,
            out=(np.float64,),
            state=(np.float64,),
        ),
        Kernel(
            "wcc",
            wcc_relax,
            wcc_tables,
            {"rel_v": ("entries", "copies"), "rel_u": ("entries", "copies")},
            _copies,
            out=(np.int64,),
            state=(np.int64,),
        ),
        Kernel(
            "sssp",
            sssp_relax,
            sssp_tables,
            {
                "starts": ("copies", "edges"),
                "deg": ("copies", None),
                "targets": ("edges", "copies"),
                "bearing": ("copies", None),
            },
            _copies,
            out=(np.float64,),
            state=(np.float64, bool),
            fill=np.inf,
        ),
        Kernel(
            "tc",
            tc_missed,
            tc_tables,
            {
                "eslots": ("pivots", None),
                "fids": ("pivots", None),
                "starts": ("pivots", "onbrs"),
                "ks": ("pivots", None),
                "onbrs": ("onbrs", None),
                "ekeys": ("ekeys", None),
            },
            lambda t: int((t.ks * (t.ks - 1) // 2).sum()),
            out=(np.int64, np.int64, np.int64),
        ),
        Kernel(
            "cn",
            cn_eligible,
            cn_tables,
            {"indeg": ("copies", None), "roles": ("copies", None)},
            _copies,
            out=(bool,),
        ),
    )
}
