"""Master/mirror synchronization over a plan's copy space.

The paper's communication model (Eq. 3) charges synchronization to the
master copy of each replicated vertex: mirrors send their partial values
to the master, the master aggregates, and broadcasts the result back
[22, 24].  :class:`SyncRoute` is that exchange for one
:class:`~repro.runtime.plan.FragmentPlan`, compiled once over *every*
vertex copy and cached on the plan (:meth:`SyncRoute.of`).  A superstep
hands it a boolean "sent" mask over the copies (:meth:`SyncRoute.select`)
and values over the same space (:meth:`SyncRoute.run`); two supersteps
of the cluster simulator later every copy of a synchronized vertex has
the combined value.  The exchange is held bit-identical to the
per-superstep array sync it replaced (``tests/oracles/master_sync.py``)
and to the per-message dict exchange (``scalar_runs.sync_by_master``).
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.runtime.bsp import Cluster
from repro.runtime.plan import FragmentPlan, gather_segments

VALUE_BYTES = 12  # (vertex id, scalar) wire estimate

_EMPTY = np.empty(0, dtype=np.int64)


class SyncRoute:
    """The mirror→master→mirror exchange over a plan's copy space.

    *Copy space* is every vertex copy ordered by (fid, id) — also the
    scalar send order — so a fragment's state is the slice
    ``offsets[fid]:offsets[fid + 1]`` of one flat array (:meth:`views`).
    Everything that depends on the plan alone is fixed here: each copy's
    fragment, vertex, master and attribution (its vertex when replicated,
    else ``-1``); and, per placement-CSR entry ``(v, fid)``, the copy it
    addresses, v's master and v's attribution.  Routes hold no cluster
    state, so one serves every run on the plan and dies with it.
    """

    def __init__(
        self, plan: FragmentPlan, value_bytes: float = float(VALUE_BYTES)
    ) -> None:
        workers = plan.num_fragments
        self.num_workers = workers
        self.value_bytes = value_bytes
        self.workers = np.arange(workers, dtype=np.int64)
        bounds, copy_id = plan.copy_space()
        #: copy-space start of each fragment (length ``num_workers + 1``)
        self.offsets = np.array(bounds, dtype=np.int64)
        self.size = bounds[-1]
        #: per copy: its fragment and its vertex
        self.copy_fid = np.repeat(self.workers, np.diff(self.offsets))
        self.copy_id = copy_id
        self.master_of = plan.master_of
        attributed = np.where(
            plan.border_mask, np.arange(plan.num_vertices, dtype=np.int64), -1
        )
        self.copy_master = self.master_of[self.copy_id]
        self.copy_mv = attributed[self.copy_id]
        self.place_indptr = plan.place_indptr
        self.place_fids = plan.place_fids
        #: per placement-CSR entry ``(v, fid)``: the copy it addresses
        self.place_copy = np.empty(plan.place_fids.size, dtype=np.int64)
        rows = np.repeat(np.arange(plan.num_vertices, dtype=np.int64), plan.rep_count)
        for fid in range(workers):
            at = np.flatnonzero(plan.place_fids == fid)
            self.place_copy[at] = self.offsets[fid] + plan.slot_of(fid)[rows[at]]
        self.place_master = self.master_of[rows]
        self.place_mv = attributed[rows]

    @classmethod
    def of(cls, plan: FragmentPlan) -> "SyncRoute":
        """The plan's route, compiled on first use and cached on the plan."""
        route = plan._sync_route
        if route is None:
            route = plan._sync_route = cls(plan)
        return route

    def views(self, flat: np.ndarray) -> List[np.ndarray]:
        """Per-fragment views of a copy-space array, indexed by fid."""
        bounds = self.offsets.tolist()
        return [flat[a:b] for a, b in zip(bounds[:-1], bounds[1:])]

    def select(self, sent: np.ndarray) -> SimpleNamespace:
        """What one sync of the copies ``sent`` (a copy-space mask) moves.

        Arrival order is sender-major, ascending id within a sender; the
        master-side ``unique`` / ``inverse`` layout, the combine and
        finalize op counts per master, the broadcast order (masters
        ascending, vertices in first-arrival order within a master), its
        targets and the copy each target addresses all follow from it.
        A caller whose mask is fixed (PageRank) selects once per run.
        """
        copies = sent.nonzero()[0]
        step = SimpleNamespace(
            copies=copies,
            senders=self.copy_fid[copies],
            masters=self.copy_master[copies],
            mv=self.copy_mv[copies],
        )
        if copies.size == 0:
            return step
        # ``np.unique(ids, return_index=True, return_inverse=True)``, unrolled
        ids = self.copy_id[copies]
        perm = np.argsort(ids, kind="stable")
        ids = ids[perm]
        head = np.empty(ids.size, dtype=bool)
        head[0] = True
        np.not_equal(ids[1:], ids[:-1], out=head[1:])
        step.uids, step.first = ids[head], perm[head]
        step.inverse = np.empty(perm.size, dtype=np.int64)
        step.inverse[perm] = head.cumsum() - 1
        umaster = self.master_of[step.uids]
        step.finalize_ops = np.bincount(umaster, minlength=self.num_workers)
        step.combine_ops = (
            np.bincount(step.masters, minlength=self.num_workers) - step.finalize_ops
        )
        # masters ascending, first arrival within a master (firsts are unique)
        step.order = (umaster * copies.size + step.first).argsort()
        idx, step.lens = gather_segments(self.place_indptr, step.uids[step.order])
        step.targets = self.place_fids[idx]
        step.receivers = self.place_copy[idx]
        step.broadcasters = self.place_master[idx]
        step.broadcast_mv = self.place_mv[idx]
        return step

    def run(
        self,
        cluster: Cluster,
        step: SimpleNamespace,
        values: np.ndarray,
        reduce: str = "sum",
        finalize: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """One sync (two supersteps) of ``values`` over the selection ``step``.

        ``values`` is a copy-space array; only the selected copies are
        read.  Returns ``(receivers, values)``: the copy each broadcast
        message reaches, in broadcast order, and the value it carries.
        Each superstep is one ``send_batch`` (and one ``charge_bulk`` per
        charge kind) in per-sender call order, so charges, link bytes
        and checkpoints fall where they did; ``np.add.at`` /
        ``np.minimum.at`` apply in arrival order, so every rounding step
        matches the scalar ``combine`` chain.
        """
        if reduce not in ("sum", "min"):
            raise ValueError(f"unsupported reduce {reduce!r} (use 'sum' or 'min')")
        # Superstep A: mirrors ship (id, value) pairs to the masters.
        cluster.send_batch(
            step.senders, step.masters, self.value_bytes, master_vertices=step.mv
        )
        cluster.deliver()
        if step.copies.size == 0:
            cluster.deliver()
            return _EMPTY, np.empty(0, dtype=np.float64)

        # Superstep B: ordered segment reduction at the masters.
        vals = np.asarray(values)[step.copies].astype(np.float64, copy=False)
        if reduce == "sum":
            acc = np.zeros(step.uids.size, dtype=np.float64)
            np.add.at(acc, step.inverse, vals)
        else:
            acc = vals[step.first]
            np.minimum.at(acc, step.inverse, vals)
        cluster.charge_bulk(self.workers, step.combine_ops)
        if finalize is not None:
            acc = finalize(step.uids, acc)
            cluster.charge_bulk(self.workers, step.finalize_ops)
        cluster.send_batch(
            step.broadcasters,
            step.targets,
            self.value_bytes,
            master_vertices=step.broadcast_mv,
        )
        cluster.deliver()
        return step.receivers, np.repeat(acc[step.order], step.lens)
