"""Partition-transparent PageRank (PR) [13].

Pull/push hybrid under BSP: each superstep, every fragment scatters rank
mass along the local edges it *owns* (replicated edges are processed once,
by their owning fragment), partial sums are aggregated at each vertex's
master, damped, and broadcast back to all copies.

Cost shape: scatter work per target copy is proportional to its local
in-degree — the ``h_PR ∝ d⁺_L`` of Table 5 — and synchronization traffic
per replicated vertex is proportional to its mirror count ``r`` —
``g_PR ∝ r``.

The run is vectorized over the partition's
:class:`~repro.runtime.plan.FragmentPlan` — the scatter is the ``pr`` row
of :data:`~repro.runtime.kernels.KERNELS`, one call per superstep over the
plan's copy space — and the scalar
loop it replaced is the test suite's differential oracle
(``scalar_runs``), which charges the cost model bit for bit the same.
"""

from __future__ import annotations

from typing import Any, Dict

import numpy as np

from repro.algorithms.base import Algorithm
from repro.partition.hybrid import HybridPartition
from repro.runtime.bsp import Cluster
from repro.runtime.kernels import KERNELS
from repro.runtime.plan import plan_for
from repro.runtime.sync import SyncRoute


class PageRank(Algorithm):
    """PageRank with a fixed iteration count (default 10).

    Parameters accepted by :meth:`run`:

    * ``iterations`` — number of power iterations;
    * ``damping`` — damping factor (default 0.85).

    Result values: ``{vertex: rank}`` over all vertices.
    """

    name = "pr"
    run_params = ("iterations", "damping")

    def __init__(self, iterations: int = 10, damping: float = 0.85) -> None:
        self.iterations = iterations
        self.damping = damping

    def _run(
        self, partition: HybridPartition, cluster: Cluster, params: Dict[str, Any]
    ) -> Any:
        """PageRank over the partition (see class docs)."""
        iterations = int(params.get("iterations", self.iterations))
        damping = float(params.get("damping", self.damping))
        graph = partition.graph
        n = max(1, graph.num_vertices)
        base = (1.0 - damping) / n
        plan = plan_for(partition)
        kernel = KERNELS["pr"]

        route = SyncRoute.of(plan)
        ranks = np.full(route.size, 1.0 / n)
        views = route.views(ranks)

        def snapshot():
            # Python-native mirror of the scalar state so checkpoint
            # byte counts (pickle sizes) match exactly.
            return {
                fid: dict(zip(plan.verts(fid).tolist(), arr.tolist()))
                for fid, arr in enumerate(views)
            }

        cluster.set_snapshot(snapshot)
        # Which vertices each fragment scatters to is fixed for the run,
        # so the fragments that scatter at all and the sync's selection
        # are worked out once, outside the loop.
        scatter = kernel.tables(plan)
        bounds = scatter.cuts["scatter"]
        fids = [fid for fid in range(plan.num_fragments) if bounds[fid] < bounds[fid + 1]]
        step = route.select(scatter.ops > 0)

        for _ in range(iterations):
            sums = cluster.map(kernel, scatter, (ranks,), fids)
            cluster.charge_bulk(route.copy_fid, scatter.ops, vertices=route.copy_id)
            receivers, vals = route.run(
                cluster,
                step,
                sums,
                reduce="sum",
                finalize=lambda _ids, acc: base + damping * acc,
            )
            ranks.fill(base)
            ranks[receivers] = vals

        return plan.master_values(dict(enumerate(views)))
