"""The kernel table: each algorithm's per-fragment compute, defined once.

A :class:`Kernel` row declares what one fragment's compute reads and
writes next to the function that does it.  ``Cluster.map`` calls that
function on the plan's cached tables; a shm worker
(:mod:`repro.runtime.parallel`) calls *the same function object* on arena
views of them.  Everything with an ordering or randomness contract —
charges, sends, sync, snapshots, which fragments run — stays in the
algorithm, parent-side.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from repro.runtime.plan import DUMMY, ECUT, FragmentPlan
from repro.runtime.plan import gather_segments, has_keys, triu_pairs

_EMPTY = np.empty(0, dtype=np.int64)


@dataclass
class Kernel:
    """One row of :data:`KERNELS`.

    ``tables(plan, fid)`` is the namespace of a fragment's read-only
    arrays and ``reads`` the ones ``compute`` touches (what shm publishes);
    ``size(tables)`` is the length of its state and output buffers, ``out``
    and ``state`` their dtypes.  ``compute(tables, *state, *args)`` returns
    the outputs (a single one bare); state past the declared buffers is
    parent-only and reaches an in-process call alone.
    """

    name: str
    compute: Callable
    tables: Callable[[FragmentPlan, int], SimpleNamespace]
    reads: Tuple[str, ...]
    size: Callable[[SimpleNamespace], int]
    out: tuple
    state: tuple = ()

    def all_tables(self, plan: FragmentPlan) -> list:
        """``tables(plan, fid)`` for every fragment, indexed by fid."""
        return [self.tables(plan, f) for f in range(plan.num_fragments)]


def pr_scatter(t: SimpleNamespace, ranks: np.ndarray) -> np.ndarray:
    """Rank mass scattered along the fragment's owned edges, per slot."""
    sums = np.zeros(ranks.size)
    # np.add.at applies updates sequentially in index order, which is the
    # scalar scatter order — every intermediate rounding step matches the
    # dict accumulation.
    np.add.at(sums, t.dst_slots, ranks[t.src_slots] / t.deg)
    return sums


def wcc_relax(t: SimpleNamespace, labels: np.ndarray) -> np.ndarray:
    """Smallest label among each bearing copy and its local neighbors."""
    best = labels.copy()
    if t.rel_v.size:
        np.minimum.at(best, t.rel_v, labels[t.rel_u])
    return best


def sssp_frontier(
    t: SimpleNamespace, active: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(sel, idx, lens)``: the active bearing slots, the flat indices
    of their out-edges in ``t.targets`` and each one's out-degree."""
    sel = np.nonzero(active & t.bearing)[0]
    return (sel, *gather_segments(t.indptr, sel))


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
    ekeys: np.ndarray, a: np.ndarray, b: np.ndarray, kb: int, directed: bool
) -> np.ndarray:
    """Whether the sorted packed keys ``ekeys`` hold the closing edge of
    each wedge ``(a, b)``, either way round."""
    if directed:
        return has_keys(ekeys, a, b, kb) | has_keys(ekeys, b, a, kb)
    return has_keys(ekeys, np.minimum(a, b), np.maximum(a, b), kb)


def tc_pivots(plan: FragmentPlan, fid: int) -> SimpleNamespace:
    """The fragment's e-cut pivots: slots, oriented-neighbor rows
    (``onbrs[starts[i] : starts[i] + ks[i]]``) and their wedge count."""
    t = plan.tc_tables(fid)
    eslots = np.flatnonzero(plan.roles(fid) == ECUT)
    ks = t.ocounts[eslots]
    return SimpleNamespace(
        eslots=eslots,
        starts=t.oindptr[eslots],
        ks=ks,
        onbrs=t.onbrs,
        ekeys=plan.edge_keys(fid),
        bound=int((ks * (ks - 1) // 2).sum()),
    )


def tc_missed(
    t: SimpleNamespace, kb: int, directed: bool
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The e-cut wedges whose closing edge the fragment does not store, as
    ``(a, b, pivot slot)``; the other ``t.bound - a.size`` are triangles."""
    wa, wb, row = wedges(t.onbrs, t.starts, t.ks)
    miss = ~closing(t.ekeys, wa, wb, kb, directed)
    return wa[miss], wb[miss], t.eslots[row[miss]]


def cn_degrees(plan: FragmentPlan, fid: int) -> SimpleNamespace:
    """Global in-degree and role code per slot of the fragment."""
    return SimpleNamespace(
        indeg=plan.in_degrees()[plan.verts(fid)], roles=plan.roles(fid)
    )


def cn_eligible(t: SimpleNamespace, theta: float) -> np.ndarray:
    """Bearing copies whose in-degree passes the ``theta`` threshold."""
    return (t.indeg <= theta) & (t.roles != DUMMY)


KERNELS: Dict[str, Kernel] = {
    k.name: k
    for k in (
        Kernel(
            "pr",
            pr_scatter,
            lambda plan, fid: plan.pr_scatter(fid, plan.graph.directed),
            ("src_slots", "dst_slots", "deg"),
            lambda t: t.ops.size,
            out=(np.float64,),
            state=(np.float64,),
        ),
        Kernel(
            "wcc",
            wcc_relax,
            FragmentPlan.wcc_entries,
            ("rel_v", "rel_u"),
            lambda t: t.counts.size,
            out=(np.int64,),
            state=(np.int64,),
        ),
        Kernel(
            "sssp",
            sssp_relax,
            FragmentPlan.sssp_out,
            ("indptr", "targets", "bearing"),
            lambda t: t.bearing.size,
            out=(np.float64,),
            state=(np.float64, bool),
        ),
        Kernel(
            "tc",
            tc_missed,
            tc_pivots,
            ("eslots", "starts", "ks", "onbrs", "ekeys"),
            lambda t: t.bound,
            out=(np.int64, np.int64, np.int64),
        ),
        Kernel(
            "cn",
            cn_eligible,
            cn_degrees,
            ("indeg", "roles"),
            lambda t: t.roles.size,
            out=(bool,),
        ),
    )
}
