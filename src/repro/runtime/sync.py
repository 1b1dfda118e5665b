"""Master/mirror synchronization helper.

The paper's communication model (Eq. 3) charges synchronization to the
master copy of each replicated vertex: mirrors send their partial values
to the master, the master aggregates, and broadcasts the result back
[22, 24].  :class:`SyncRoute` compiles that exchange for a set of
``{fid: ids}`` and runs it in two supersteps of the cluster simulator;
:func:`sync_by_master_arrays` is "compile, run once".  Both are held
bit-identical to the per-message dict exchange kept as the test suite's
oracle (``scalar_runs.sync_by_master``).
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

import numpy as np

from repro.runtime.bsp import Cluster
from repro.runtime.plan import FragmentPlan, gather_segments

VALUE_BYTES = 12  # (vertex id, scalar) wire estimate


class SyncRoute:
    """The id-only half of the array master sync, compiled once.

    Everything :func:`sync_by_master_arrays` derives from ``{fid: ids}``
    alone is fixed here: each sender's ascending-id order, its masters,
    byte and attribution arrays; the ``unique`` / ``inverse`` layout of
    the master-side reduction and its combine / finalize charges; the
    broadcast order and each master's target slice; each receiver's
    gather indices.  :meth:`run` then touches only values and the
    cluster.  A caller whose id sets do not change between supersteps
    (PageRank) compiles one route per run; routes hold no cluster state
    and are never cached across runs.
    """

    def __init__(
        self,
        plan: FragmentPlan,
        ids_by_fid: Dict[int, np.ndarray],
        num_workers: int,
        value_bytes: float = float(VALUE_BYTES),
    ) -> None:
        self.num_workers = num_workers
        #: per sender: (fid, argsort of its ids, masters, nbytes, attribution)
        self.senders = []
        parts_ids = []
        for fid in range(num_workers):
            ids = ids_by_fid.get(fid)
            if ids is None:
                continue
            ids = np.asarray(ids, dtype=np.int64)
            if ids.size == 0:
                continue
            order = np.argsort(ids)  # ids unique per fragment: total order
            ids = ids[order]
            self.senders.append((
                fid,
                order,
                plan.master_of[ids],
                np.full(ids.size, value_bytes),
                np.where(plan.border_mask[ids], ids, -1),
            ))
            parts_ids.append(ids)
        if not parts_ids:
            return
        # The concatenated arrays are in scalar arrival order already.
        all_dst = np.concatenate([sender[2] for sender in self.senders])
        self.uids, self.first_idx, self.inverse = np.unique(
            np.concatenate(parts_ids), return_index=True, return_inverse=True
        )
        umaster = plan.master_of[self.uids]
        uniq_per_master = np.bincount(umaster, minlength=num_workers)
        extra = np.bincount(all_dst, minlength=num_workers) - uniq_per_master
        #: (master, ops) charges: one per combine call, one per finalize
        self.combine_charges = [
            (int(m), float(extra[m])) for m in np.nonzero(extra > 0)[0]
        ]
        self.finalize_charges = [
            (int(m), float(uniq_per_master[m])) for m in np.nonzero(uniq_per_master)[0]
        ]
        # Broadcast back to every placement, masters ascending, vertices
        # in first-arrival order within a master (the scalar dict order).
        self.order = np.lexsort((self.first_idx, umaster))
        bids = self.uids[self.order]
        idx, self.lens = gather_segments(plan.place_indptr, bids)
        targets = plan.place_fids[idx]
        rep_ids = np.repeat(bids, self.lens)
        rep_mv = np.where(plan.border_mask[rep_ids], rep_ids, -1)
        rep_master = np.repeat(umaster[self.order], self.lens)
        #: per broadcasting master: (fid, targets, nbytes, attribution)
        self.broadcasts = []
        for m in np.unique(rep_master):
            sel = rep_master == m
            self.broadcasts.append((
                int(m), targets[sel], np.full(int(sel.sum()), value_bytes), rep_mv[sel]
            ))
        #: per receiver: (ids, indices into the broadcast value array)
        self.receivers = {}
        for f in range(num_workers):
            sel = np.nonzero(targets == f)[0]
            if sel.size:
                self.receivers[f] = (rep_ids[sel], sel)

    def run(
        self,
        cluster: Cluster,
        values_by_fid: Dict[int, np.ndarray],
        reduce: str = "sum",
        finalize: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None,
    ) -> Dict[int, Tuple[np.ndarray, np.ndarray]]:
        """One sync (two supersteps) of ``values_by_fid`` over this route.

        ``values_by_fid[fid]`` is aligned with the ids the route was
        compiled from.  Accounting goes through ``Cluster.send_batch`` /
        ``charge`` / ``deliver`` call for call, so fate draws, link bytes
        and checkpoints fall exactly where the per-call sync put them.
        """
        if reduce not in ("sum", "min"):
            raise ValueError(f"unsupported reduce {reduce!r} (use 'sum' or 'min')")
        # Superstep A: mirrors ship (id, value) arrays to the masters.
        parts_vals = []
        for fid, order, masters, nbytes, mv in self.senders:
            cluster.send_batch(fid, masters, nbytes, master_vertices=mv)
            parts_vals.append(np.asarray(values_by_fid[fid], dtype=np.float64)[order])
        cluster.deliver()

        empty = (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64))
        if not parts_vals:
            cluster.deliver()
            return {f: empty for f in range(self.num_workers)}

        # Superstep B: ordered segment reduction at the masters.
        all_vals = np.concatenate(parts_vals)
        if reduce == "sum":
            acc = np.zeros(self.uids.size, dtype=np.float64)
            np.add.at(acc, self.inverse, all_vals)
        else:
            acc = all_vals[self.first_idx].copy()
            np.minimum.at(acc, self.inverse, all_vals)
        for m, ops in self.combine_charges:
            cluster.charge(m, ops)
        if finalize is not None:
            acc = finalize(self.uids, acc)
            for m, ops in self.finalize_charges:
                cluster.charge(m, ops)
        rep_vals = np.repeat(acc[self.order], self.lens)
        for m, targets, nbytes, mv in self.broadcasts:
            cluster.send_batch(m, targets, nbytes, master_vertices=mv)
        cluster.deliver()

        out = {f: empty for f in range(self.num_workers)}
        for f, (ids, sel) in self.receivers.items():
            out[f] = (ids, rep_vals[sel])
        return out


def sync_by_master_arrays(
    cluster: Cluster,
    plan: FragmentPlan,
    partial_arrays: Dict[int, Tuple[np.ndarray, np.ndarray]],
    reduce: str = "sum",
    value_bytes: float = float(VALUE_BYTES),
    finalize: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None,
) -> Dict[int, Tuple[np.ndarray, np.ndarray]]:
    """Aggregate per-copy partial values at each vertex's master.

    Parameters
    ----------
    partial_arrays:
        ``{fid: (vertex_ids, values)}`` with unique ids per fragment.
    reduce:
        ``"sum"`` or ``"min"`` — the master-side combine.
    finalize:
        Optional vectorized ``(vertex_ids, combined) -> values`` applied
        at the masters before broadcast.

    Returns ``{fid: (vertex_ids, values)}`` for every fragment holding a
    copy of a synchronized vertex.  Two supersteps are consumed.  This
    is "compile a :class:`SyncRoute`, run it once"; callers with fixed
    id sets keep the route instead.

    Bit-identity: each fragment's partials are shipped in ascending
    vertex order, fragments in ascending fid order — exactly the scalar
    path's canonical send order, so the fault stream sees the same
    per-message fate sequence.  Master-side reduction uses ``np.add.at``
    / ``np.minimum.at``, which apply updates sequentially in index
    order; since the index arrays are laid out in scalar arrival order
    (sender-fid-major), the float combine order — hence every rounding
    step — matches the scalar ``combine`` chain exactly.
    """
    route = SyncRoute(
        plan,
        {fid: ids for fid, (ids, _vals) in partial_arrays.items()},
        cluster.num_workers,
        value_bytes,
    )
    return route.run(
        cluster,
        {fid: vals for fid, (_ids, vals) in partial_arrays.items()},
        reduce,
        finalize,
    )
