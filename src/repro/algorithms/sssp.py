"""Partition-transparent single-source shortest paths (SSSP) [21].

Bellman–Ford under BSP on unit edge weights (the synthetic graphs are
unweighted, so distance = hop count): active copies relax their local
out-edges, improved tentative distances are combined at masters with
``min`` and broadcast back; a vertex copy becomes active again when its
distance improves.  Terminates at a global fixpoint.

Cost shape: relaxation work per active copy is proportional to its local
out-degree — ``h_SSSP ∝ d⁻_L`` — and sync traffic gives ``g_SSSP ∝ r``.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Optional

import numpy as np

from repro.algorithms.base import Algorithm, AlgorithmResult, global_or
from repro.partition.hybrid import HybridPartition
from repro.runtime.costclock import CostClock
from repro.runtime.plan import gather_segments, get_plan
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

    def run(
        self,
        partition: HybridPartition,
        clock: Optional[CostClock] = None,
        **params: Any,
    ) -> AlgorithmResult:
        """Run SSSP from ``source`` over the partition (see class docs)."""
        source = int(params.get("source", self.source))
        max_iterations = int(params.get("max_iterations", self.max_iterations))
        num_vertices = partition.graph.num_vertices
        if not 0 <= source < num_vertices:
            raise ValueError(
                f"sssp source {source} is not a vertex "
                f"(num_vertices={num_vertices})"
            )
        cluster = self._cluster(partition, clock, params)
        plan = get_plan(partition)
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

        runner = cluster.shm_runner()

        for _ in range(max_iterations):
            # shm backend: frontier relaxation runs in worker processes
            # (the runner mirrors the skip conditions below exactly);
            # charges are still computed here from the same sel/lens.
            shm_best = (
                runner.sssp_relax(plan, dist, active)
                if runner is not None
                else None
            )
            partials = {}
            for fragment in partition.fragments:
                fid = fragment.fid
                if not active[fid].any():
                    continue
                t = plan.sssp_out(fid)
                sel = np.nonzero(active[fid] & t.bearing)[0]
                if sel.size == 0:
                    continue
                idx, lens = gather_segments(t.indptr, sel)
                cluster.charge_bulk(fid, lens, vertices=plan.verts(fid)[sel])
                if idx.size == 0:
                    continue
                local = dist[fid]
                if shm_best is not None:
                    best = shm_best[fid]
                else:
                    best = np.full(local.size, INF)
                    np.minimum.at(
                        best, t.targets[idx], np.repeat(local[sel], lens) + 1.0
                    )
                mask = best < local
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

        profile = cluster.finish()
        return AlgorithmResult(values=plan.master_values(dist), profile=profile)
