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
charges and the sync are decided here.
"""

from __future__ import annotations

import math
from typing import Any, Dict

import numpy as np

from repro.algorithms.base import Algorithm, global_or
from repro.partition.hybrid import HybridPartition
from repro.runtime.bsp import Cluster
from repro.runtime.kernels import KERNELS, sssp_frontier
from repro.runtime.plan import get_plan
from repro.runtime.sync import sync_by_master_arrays

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
        max_iterations = int(params.get("max_iterations", self.max_iterations))
        num_vertices = partition.graph.num_vertices
        if not 0 <= source < num_vertices:
            raise ValueError(
                f"sssp source {source} is not a vertex "
                f"(num_vertices={num_vertices})"
            )
        plan = get_plan(partition)
        kernel = KERNELS["sssp"]
        dist: Dict[int, np.ndarray] = {
            f.fid: np.full(plan.verts(f.fid).size, INF)
            for f in partition.fragments
        }
        active: Dict[int, np.ndarray] = {
            f.fid: np.zeros(plan.verts(f.fid).size, dtype=bool)
            for f in partition.fragments
        }

        def snapshot():
            return (
                {
                    fid: dict(zip(plan.verts(fid).tolist(), arr.tolist()))
                    for fid, arr in dist.items()
                },
                {
                    fid: set(plan.verts(fid)[mask].tolist())
                    for fid, mask in active.items()
                },
            )

        cluster.set_snapshot(snapshot)
        for fid in partition.placement(source):
            slot = plan.slot_of(fid)[source]
            dist[fid][slot] = 0.0
            active[fid][slot] = True

        out_edges = kernel.all_tables(plan)
        # The frontier the clock is charged from also reaches an
        # in-process kernel, as parent-only state, so it is derived once.
        frontiers: Dict[int, tuple] = {}

        for _ in range(max_iterations):
            fids = []  # where an active bearing copy has a local out-edge
            for fragment in partition.fragments:
                fid = fragment.fid
                if not active[fid].any():
                    continue
                frontier = sssp_frontier(out_edges[fid], active[fid])
                sel, idx, lens = frontier
                if sel.size == 0:
                    continue
                cluster.charge_bulk(fid, lens, vertices=plan.verts(fid)[sel])
                if idx.size:
                    fids.append(fid)
                    frontiers[fid] = frontier
            partials = {}
            relaxed = cluster.map(kernel, out_edges, (dist, active, frontiers), fids)
            for fid, best in zip(fids, relaxed):
                mask = best < dist[fid]
                if mask.any():
                    partials[fid] = (plan.verts(fid)[mask], best[mask])

            synced = sync_by_master_arrays(cluster, plan, partials, reduce="min")

            changed = {fid: False for fid in range(cluster.num_workers)}
            for fragment in partition.fragments:
                fid = fragment.fid
                ids, vals = synced[fid]
                now_active = np.zeros(dist[fid].size, dtype=bool)
                if ids.size:
                    slots = plan.slot_of(fid)[ids]
                    better = vals < dist[fid][slots]
                    if better.any():
                        dist[fid][slots[better]] = vals[better]
                        now_active[slots[better]] = True
                        changed[fid] = True
                active[fid] = now_active
            if not global_or(cluster, changed):
                break

        return plan.master_values(dist)
