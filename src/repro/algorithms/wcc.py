"""Partition-transparent weakly connected components (WCC) [9].

Classic min-label propagation under BSP: every fragment locally relaxes
labels along its edges (direction ignored), label updates for replicated
vertices are combined at masters with ``min``, and iteration continues
until a global fixpoint (detected with a two-superstep OR reduction).

Cost shape: per-copy work each round is proportional to its local degree
— ``h_WCC ∝ d_L`` — and the (small) synchronization per replicated vertex
gives ``g_WCC ∝ r`` (Table 5).

The local relaxation is the ``wcc`` row of
:data:`~repro.runtime.kernels.KERNELS` (``Cluster.map``); charges, the
sync and the fixpoint test stay here.
"""

from __future__ import annotations

from typing import Any, Dict

import numpy as np

from repro.algorithms.base import Algorithm, global_or
from repro.partition.hybrid import HybridPartition
from repro.runtime.bsp import Cluster
from repro.runtime.kernels import KERNELS
from repro.runtime.plan import get_plan
from repro.runtime.sync import sync_by_master_arrays


class WeaklyConnectedComponents(Algorithm):
    """Min-label propagation to fixpoint.

    Result values: ``{vertex: component label}`` where the label is the
    smallest vertex id in the component.
    """

    name = "wcc"
    run_params = ("max_iterations",)

    def __init__(self, max_iterations: int = 10_000) -> None:
        self.max_iterations = max_iterations

    def _run(
        self, partition: HybridPartition, cluster: Cluster, params: Dict[str, Any]
    ) -> Any:
        """WCC to fixpoint over the partition (see class docs)."""
        max_iterations = int(params.get("max_iterations", self.max_iterations))
        plan = get_plan(partition)
        kernel = KERNELS["wcc"]
        labels: Dict[int, np.ndarray] = {
            f.fid: plan.verts(f.fid).copy() for f in partition.fragments
        }

        def snapshot():
            return {
                fid: dict(zip(plan.verts(fid).tolist(), arr.tolist()))
                for fid, arr in labels.items()
            }

        cluster.set_snapshot(snapshot)
        entries = kernel.all_tables(plan)
        fids = [f.fid for f in partition.fragments if plan.verts(f.fid).size]

        for _ in range(max_iterations):
            partials = {}
            relaxed = cluster.map(kernel, entries, (labels,), fids)
            for fid, best in zip(fids, relaxed):
                verts = plan.verts(fid)
                ent = entries[fid]
                lab = labels[fid]
                cluster.charge_bulk(fid, ent.counts, vertices=verts)
                improved = best < lab
                border_extra = ent.border & ~improved
                ids = np.concatenate([verts[improved], verts[border_extra]])
                if ids.size:
                    vals = np.concatenate(
                        [best[improved], lab[border_extra]]
                    ).astype(np.float64)
                    partials[fid] = (ids, vals)

            synced = sync_by_master_arrays(cluster, plan, partials, reduce="min")

            changed = {fid: False for fid in range(cluster.num_workers)}
            for fragment in partition.fragments:
                fid = fragment.fid
                ids, vals = synced[fid]
                if ids.size == 0:
                    continue
                lab = labels[fid]
                slots = plan.slot_of(fid)[ids]
                better = vals < lab[slots]
                if better.any():
                    lab[slots[better]] = vals[better].astype(np.int64)
                    changed[fid] = True
            if not global_or(cluster, changed):
                break

        return plan.master_values(labels)
