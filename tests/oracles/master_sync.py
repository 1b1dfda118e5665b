"""``sync_by_master_arrays``, frozen from before the sync route was split out.

Verbatim body of ``repro.runtime.sync.sync_by_master_arrays`` as it stood
when every call re-derived its routing (per-sender order, ``unique``,
``lexsort``, placement gather, per-master and per-receiver masks) from the
id sets it was handed.  ``SyncRoute`` — compiled once per plan over every
copy, run with a "sent" mask per superstep — must keep producing these
arrays, charges, sends, link bytes and checkpoints
(``tests/runtime/test_sync_route.py``, ``tests/runtime/test_sync.py``).
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

import numpy as np

from repro.runtime.bsp import Cluster
from repro.runtime.plan import FragmentPlan, gather_segments
from repro.runtime.sync import VALUE_BYTES


def sync_by_master_arrays(
    cluster: Cluster,
    plan: FragmentPlan,
    partial_arrays: Dict[int, Tuple[np.ndarray, np.ndarray]],
    reduce: str = "sum",
    value_bytes: float = float(VALUE_BYTES),
    finalize: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None,
) -> Dict[int, Tuple[np.ndarray, np.ndarray]]:
    """Array twin of :func:`sync_by_master`, bit-identical to it.

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
    copy of a synchronized vertex.  Two supersteps are consumed.

    Bit-identity: each fragment's partials are shipped in ascending
    vertex order, fragments in ascending fid order — exactly the scalar
    path's canonical send order, so every byte is charged where the
    scalar path charged it.  Master-side reduction uses ``np.add.at``
    / ``np.minimum.at``, which apply updates sequentially in index
    order; since the index arrays are laid out in scalar arrival order
    (sender-fid-major), the float combine order — hence every rounding
    step — matches the scalar ``combine`` chain exactly.
    """
    if reduce not in ("sum", "min"):
        raise ValueError(f"unsupported reduce {reduce!r} (use 'sum' or 'min')")
    num_workers = cluster.num_workers

    # Superstep A: mirrors ship (id, value) arrays to the masters.
    parts_ids = []
    parts_vals = []
    parts_dst = []
    for fid in range(num_workers):
        entry = partial_arrays.get(fid)
        if entry is None:
            continue
        ids, vals = entry
        ids = np.asarray(ids, dtype=np.int64)
        if ids.size == 0:
            continue
        vals = np.asarray(vals, dtype=np.float64)
        order = np.argsort(ids)  # ids unique per fragment: total order
        ids = ids[order]
        vals = vals[order]
        masters = plan.master_of[ids]
        cluster.send_batch(
            fid,
            masters,
            np.full(ids.size, value_bytes),
            master_vertices=np.where(plan.border_mask[ids], ids, -1),
        )
        parts_ids.append(ids)
        parts_vals.append(vals)
        parts_dst.append(masters)
    cluster.deliver()

    empty_ids = np.empty(0, dtype=np.int64)
    empty_vals = np.empty(0, dtype=np.float64)
    if not parts_ids:
        cluster.deliver()
        return {f: (empty_ids, empty_vals) for f in range(num_workers)}

    # Superstep B: ordered segment reduction at the masters.  The
    # concatenated arrays are in scalar arrival order already.
    all_ids = np.concatenate(parts_ids)
    all_vals = np.concatenate(parts_vals)
    all_dst = np.concatenate(parts_dst)
    uids, first_idx, inverse = np.unique(
        all_ids, return_index=True, return_inverse=True
    )
    if reduce == "sum":
        acc = np.zeros(uids.size, dtype=np.float64)
        np.add.at(acc, inverse, all_vals)
    else:
        acc = all_vals[first_idx].copy()
        np.minimum.at(acc, inverse, all_vals)
    umaster = plan.master_of[uids]
    msgs_per_master = np.bincount(all_dst, minlength=num_workers)
    uniq_per_master = np.bincount(umaster, minlength=num_workers)
    extra = msgs_per_master - uniq_per_master  # combine calls per master
    for m in np.nonzero(extra > 0)[0]:
        cluster.charge(int(m), float(extra[m]))
    if finalize is not None:
        acc = finalize(uids, acc)
        for m in np.nonzero(uniq_per_master)[0]:
            cluster.charge(int(m), float(uniq_per_master[m]))

    # Broadcast back to every placement, masters ascending, vertices in
    # first-arrival order within a master (the scalar dict order).
    order = np.lexsort((first_idx, umaster))
    bids = uids[order]
    bvals = acc[order]
    bmaster = umaster[order]
    idx, lens = gather_segments(plan.place_indptr, bids)
    targets = plan.place_fids[idx]
    rep_ids = np.repeat(bids, lens)
    rep_vals = np.repeat(bvals, lens)
    rep_mv = np.where(plan.border_mask[rep_ids], rep_ids, -1)
    rep_master = np.repeat(bmaster, lens)
    for m in np.unique(rep_master):
        sel = rep_master == m
        cluster.send_batch(
            int(m),
            targets[sel],
            np.full(int(sel.sum()), value_bytes),
            master_vertices=rep_mv[sel],
        )
    cluster.deliver()

    out: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
    for f in range(num_workers):
        sel = targets == f
        if sel.any():
            out[f] = (rep_ids[sel], rep_vals[sel])
        else:
            out[f] = (empty_ids, empty_vals)
    return out
