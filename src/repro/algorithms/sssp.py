"""Partition-transparent single-source shortest paths (SSSP) [21].

Bellman–Ford under BSP on unit edge weights (the synthetic graphs are
unweighted, so distance = hop count): active copies relax their local
out-edges, improved tentative distances are combined at masters with
``min`` and broadcast back; a vertex copy becomes active again when its
distance improves.  Terminates at a global fixpoint.

Cost shape: relaxation work per active copy is proportional to its local
out-degree — ``h_SSSP ∝ d⁻_L`` — and sync traffic gives ``g_SSSP ∝ r``.

The relaxation is the ``sssp`` row of :data:`~repro.runtime.kernels.KERNELS`
(``Cluster.map``); which fragments have a frontier to relax from, the
charges and the sync are decided here.  Distances and the active flags
are each one flat array over the plan's copy space
(:class:`~repro.runtime.sync.SyncRoute`); the kernel sees per-fragment
views of them, and a superstep's charges, sync and receive are a fixed
number of array calls whatever the number of fragments.
"""

from __future__ import annotations

import math
from typing import Any, Dict

import numpy as np

from repro.algorithms.base import Algorithm, global_or, iterations_param
from repro.partition.hybrid import HybridPartition
from repro.runtime.bsp import Cluster
from repro.runtime.kernels import KERNELS
from repro.runtime.plan import gather_segments, plan_for
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
        out_edges = kernel.all_tables(plan)
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

        bearing = np.concatenate([t.bearing for t in out_edges])
        # The fragments' out-edge CSRs end to end, over the copy space: a
        # superstep's frontier is one gather, cut at fragment boundaries
        # into what ``sssp_frontier`` would derive per fragment.  That cut
        # reaches an in-process kernel as parent-only state.
        edge_starts = np.cumsum([0] + [t.targets.size for t in out_edges])
        indptr = np.concatenate(
            [t.indptr[:-1] + e for t, e in zip(out_edges, edge_starts)]
            + [edge_starts[-1:]]
        )
        frontiers: Dict[int, tuple] = {}
        best = np.empty(route.size)
        for _ in range(max_iterations):
            sel = np.flatnonzero(active & bearing)
            idx, lens = gather_segments(indptr, sel)
            cluster.charge_bulk(route.copy_fid[sel], lens, vertices=route.copy_id[sel])
            copy_cuts = np.searchsorted(sel, route.offsets).tolist()
            edge_cuts = np.searchsorted(idx, edge_starts)
            # where an active bearing copy has a local out-edge
            fids = np.flatnonzero(np.diff(edge_cuts)).tolist()
            for fid in fids:
                a, b = copy_cuts[fid], copy_cuts[fid + 1]
                frontiers[fid] = (
                    sel[a:b] - route.offsets[fid],
                    idx[edge_cuts[fid] : edge_cuts[fid + 1]] - edge_starts[fid],
                    lens[a:b],
                )
            relaxed = cluster.map(kernel, out_edges, (dist_of, active_of, frontiers), fids)
            best.fill(INF)
            for fid, out in zip(fids, relaxed):
                best[route.offsets[fid] : route.offsets[fid + 1]] = out

            receivers, vals = route.run(
                cluster, route.select(best < dist), best, reduce="min"
            )

            better = vals < dist[receivers]
            improved = receivers[better]
            dist[improved] = vals[better]
            active.fill(False)
            active[improved] = True
            changed = np.bincount(route.copy_fid[improved], minlength=route.num_workers)
            if not global_or(cluster, dict(enumerate((changed > 0).tolist()))):
                break

        return plan.master_values(dict(enumerate(dist_of)))
