"""Partition-transparent weakly connected components (WCC) [9].

Classic min-label propagation under BSP: every fragment locally relaxes
labels along its edges (direction ignored), label updates for replicated
vertices are combined at masters with ``min``, and iteration continues
until a global fixpoint (detected with a two-superstep OR reduction).

Cost shape: per-copy work each round is proportional to its local degree
— ``h_WCC ∝ d_L`` — and the (small) synchronization per replicated vertex
gives ``g_WCC ∝ r`` (Table 5).

The local relaxation is the ``wcc`` row of
:data:`~repro.runtime.kernels.KERNELS` (``Cluster.map``, one call per
superstep); charges, the sync and the fixpoint test stay here.  Labels
are one flat array over the plan's copy space
(:class:`~repro.runtime.sync.SyncRoute`), the space the kernel's tables
index.
"""

from __future__ import annotations

from typing import Any, Dict

import numpy as np

from repro.algorithms.base import Algorithm, global_or, iterations_param
from repro.partition.hybrid import HybridPartition
from repro.runtime.bsp import Cluster
from repro.runtime.kernels import KERNELS
from repro.runtime.plan import plan_for
from repro.runtime.sync import SyncRoute


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
        max_iterations = iterations_param(params, "max_iterations", self.max_iterations)
        plan = plan_for(partition)
        route = SyncRoute.of(plan)
        kernel = KERNELS["wcc"]
        labels = route.copy_id.copy()
        views = route.views(labels)

        def snapshot():
            return {
                fid: dict(zip(plan.verts(fid).tolist(), arr.tolist()))
                for fid, arr in enumerate(views)
            }

        cluster.set_snapshot(snapshot)
        entries = kernel.tables(plan)
        fids = [fid for fid, arr in enumerate(views) if arr.size]

        for _ in range(max_iterations):
            # Relaxation never raises a label, so ``best`` is the label
            # every copy ships: improved ones and, improved or not, every
            # border copy, so mirrors learn of remote improvements.
            best = cluster.map(kernel, entries, (labels,), fids)
            cluster.charge_bulk(route.copy_fid, entries.counts, vertices=route.copy_id)
            receivers, vals = route.run(
                cluster, route.select((best < labels) | entries.border), best, reduce="min"
            )

            better = vals < labels[receivers]
            improved = receivers[better]
            labels[improved] = vals[better].astype(np.int64)
            changed = np.bincount(route.copy_fid[improved], minlength=route.num_workers)
            if not global_or(cluster, changed):
                break

        return plan.master_values(dict(enumerate(views)))
