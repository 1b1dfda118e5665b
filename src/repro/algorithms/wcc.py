"""Partition-transparent weakly connected components (WCC) [9].

Classic min-label propagation under BSP: every fragment locally relaxes
labels along its edges (direction ignored), label updates for replicated
vertices are combined at masters with ``min``, and iteration continues
until a global fixpoint (detected with a two-superstep OR reduction).

Cost shape: per-copy work each round is proportional to its local degree
— ``h_WCC ∝ d_L`` — and the (small) synchronization per replicated vertex
gives ``g_WCC ∝ r`` (Table 5).
"""

from __future__ import annotations

from typing import Any, Dict, Optional

import numpy as np

from repro.algorithms.base import Algorithm, AlgorithmResult, global_or
from repro.partition.hybrid import HybridPartition
from repro.runtime.costclock import CostClock
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

    def run(
        self,
        partition: HybridPartition,
        clock: Optional[CostClock] = None,
        **params: Any,
    ) -> AlgorithmResult:
        """Run WCC to fixpoint over the partition (see class docs)."""
        max_iterations = int(params.get("max_iterations", self.max_iterations))
        cluster = self._cluster(partition, clock, params)
        plan = get_plan(partition)
        labels: Dict[int, np.ndarray] = {
            f.fid: plan.verts(f.fid).copy() for f in partition.fragments
        }

        def snapshot():
            return {
                fid: dict(zip(plan.verts(fid).tolist(), arr.tolist()))
                for fid, arr in labels.items()
            }

        cluster.set_snapshot(snapshot)
        runner = cluster.shm_runner()

        for _ in range(max_iterations):
            # shm backend: the relaxation sweep runs in worker processes;
            # outputs are bit-identical to the in-process minimum.at.
            shm_best = (
                runner.wcc_relax(plan, labels) if runner is not None else None
            )
            partials = {}
            for fragment in partition.fragments:
                fid = fragment.fid
                verts = plan.verts(fid)
                if verts.size == 0:
                    continue
                ent = plan.wcc_entries(fid)
                lab = labels[fid]
                if shm_best is not None:
                    best = shm_best[fid]
                else:
                    best = lab.copy()
                    if ent.rel_v.size:
                        np.minimum.at(best, ent.rel_v, lab[ent.rel_u])
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

        profile = cluster.finish()
        return AlgorithmResult(values=plan.master_values(labels), profile=profile)
