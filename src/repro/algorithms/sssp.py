"""Partition-transparent single-source shortest paths (SSSP) [21].

Bellman–Ford under BSP on unit edge weights (the synthetic graphs are
unweighted, so distance = hop count): active copies relax their local
out-edges, improved tentative distances are combined at masters with
``min`` and broadcast back; a vertex copy becomes active again when its
distance improves.  Terminates at a global fixpoint.

Cost shape: relaxation work per active copy is proportional to its local
out-degree — ``h_SSSP ∝ d⁻_L`` — and sync traffic gives ``g_SSSP ∝ r``.

The relaxation is the ``sssp`` row of :data:`~repro.runtime.kernels.KERNELS`
(``Cluster.map``, one call per superstep over the plan's copy space);
the frontier, its charges, which fragments have work and the sync are
decided here.  Distances and the active flags are each one flat array
over the copy space (:class:`~repro.runtime.sync.SyncRoute`), so a
superstep is a fixed number of array calls whatever the number of
fragments.
"""

from __future__ import annotations

import math
from typing import Any, Dict

import numpy as np

from repro.algorithms.base import Algorithm, global_or, iterations_param
from repro.partition.hybrid import HybridPartition
from repro.runtime.bsp import Cluster
from repro.runtime.kernels import KERNELS, sssp_frontier
from repro.runtime.plan import plan_for
from repro.runtime.sync import SyncRoute

INF = math.inf


class SingleSourceShortestPath(Algorithm):
    """Bellman–Ford SSSP from ``source`` (default: vertex 0).

    Result values: ``{vertex: distance}`` with ``math.inf`` for
    unreachable vertices.
    """

    name = "sssp"
    run_params = ("source", "max_iterations")

    def __init__(self, source: int = 0, max_iterations: int = 100_000) -> None:
        self.source = source
        self.max_iterations = max_iterations

    def _run(
        self, partition: HybridPartition, cluster: Cluster, params: Dict[str, Any]
    ) -> Any:
        """SSSP from ``source`` over the partition (see class docs)."""
        source = int(params.get("source", self.source))
        max_iterations = iterations_param(params, "max_iterations", self.max_iterations)
        num_vertices = partition.graph.num_vertices
        if not 0 <= source < num_vertices:
            raise ValueError(
                f"sssp source {source} is not a vertex "
                f"(num_vertices={num_vertices})"
            )
        plan = plan_for(partition)
        route = SyncRoute.of(plan)
        kernel = KERNELS["sssp"]
        out_edges = kernel.tables(plan)
        dist = np.full(route.size, INF)
        active = np.zeros(route.size, dtype=bool)
        dist_of, active_of = route.views(dist), route.views(active)

        def snapshot():
            return (
                {
                    fid: dict(zip(plan.verts(fid).tolist(), arr.tolist()))
                    for fid, arr in enumerate(dist_of)
                },
                {
                    fid: set(plan.verts(fid)[mask].tolist())
                    for fid, mask in enumerate(active_of)
                },
            )

        cluster.set_snapshot(snapshot)
        starts = route.place_copy[plan.place_indptr[source] : plan.place_indptr[source + 1]]
        dist[starts] = 0.0
        active[starts] = True

        for _ in range(max_iterations):
            frontier = sssp_frontier(out_edges, active)
            sel, _, lens = frontier
            senders = route.copy_fid[sel]
            cluster.charge_bulk(senders, lens, vertices=route.copy_id[sel])
            # the fragments where an active bearing copy has a local out-edge
            fids = np.bincount(senders, lens, route.num_workers).nonzero()[0].tolist()
            best = cluster.map(kernel, out_edges, (dist, active, frontier), fids)

            receivers, vals = route.run(
                cluster, route.select(best < dist), best, reduce="min"
            )

            better = vals < dist[receivers]
            improved = receivers[better]
            dist[improved] = vals[better]
            active.fill(False)
            active[improved] = True
            changed = np.bincount(route.copy_fid[improved], minlength=route.num_workers)
            if not global_or(cluster, changed):
                break

        return plan.master_values(dict(enumerate(dist_of)))
