"""Partition-transparent PageRank (PR) [13].

Pull/push hybrid under BSP: each superstep, every fragment scatters rank
mass along the local edges it *owns* (replicated edges are processed once,
by their owning fragment), partial sums are aggregated at each vertex's
master, damped, and broadcast back to all copies.

Cost shape: scatter work per target copy is proportional to its local
in-degree — the ``h_PR ∝ d⁺_L`` of Table 5 — and synchronization traffic
per replicated vertex is proportional to its mirror count ``r`` —
``g_PR ∝ r``.

The run is a vectorized kernel over the partition's
:class:`~repro.runtime.plan.FragmentPlan`; the scalar loop it replaced is
the test suite's differential oracle (``scalar_runs``) and charges the
cost model bit for bit the same.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

import numpy as np

from repro.algorithms.base import Algorithm, AlgorithmResult
from repro.partition.hybrid import HybridPartition
from repro.runtime.costclock import CostClock
from repro.runtime.plan import get_plan
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

    def run(
        self,
        partition: HybridPartition,
        clock: Optional[CostClock] = None,
        **params: Any,
    ) -> AlgorithmResult:
        """Run PageRank over the partition (see class docs)."""
        iterations = int(params.get("iterations", self.iterations))
        damping = float(params.get("damping", self.damping))
        graph = partition.graph
        n = max(1, graph.num_vertices)
        base = (1.0 - damping) / n
        cluster = self._cluster(partition, clock, params)
        plan = get_plan(partition)
        target_aware = graph.directed

        ranks: Dict[int, np.ndarray] = {
            f.fid: np.full(plan.verts(f.fid).size, 1.0 / n)
            for f in partition.fragments
        }

        def snapshot():
            # Python-native mirror of the scalar state so checkpoint
            # byte counts (pickle sizes) match exactly.
            return {
                fid: dict(zip(plan.verts(fid).tolist(), arr.tolist()))
                for fid, arr in ranks.items()
            }

        cluster.set_snapshot(snapshot)
        runner = cluster.shm_runner()
        # Which vertices each fragment scatters to is fixed for the run,
        # so the sync's routing is compiled once, outside the loop.
        scatters = {
            f.fid: plan.pr_scatter(f.fid, target_aware) for f in partition.fragments
        }
        scatters = {fid: sc for fid, sc in scatters.items() if sc.src_slots.size}
        route = SyncRoute(
            plan,
            {fid: sc.touched_ids for fid, sc in scatters.items()},
            cluster.num_workers,
        )

        for _ in range(iterations):
            # shm backend: the scatter runs in worker processes over
            # shared plan views; the returned sums are bit-identical to
            # the in-process np.add.at below, and all cost accounting
            # stays here in the parent.
            shm_sums = (
                runner.pr_scatter(plan, ranks, target_aware)
                if runner is not None
                else None
            )
            partials = {}
            for fid, sc in scatters.items():
                local = ranks[fid]
                if shm_sums is not None:
                    sums = shm_sums[fid]
                else:
                    sums = np.zeros(local.size)
                    # np.add.at applies updates sequentially in index order,
                    # which is the scalar scatter order — every intermediate
                    # rounding step matches the dict accumulation.
                    np.add.at(sums, sc.dst_slots, local[sc.src_slots] / sc.deg)
                cluster.charge_bulk(fid, sc.ops, vertices=plan.verts(fid))
                partials[fid] = sums[sc.touched_slots]

            synced = route.run(
                cluster,
                partials,
                reduce="sum",
                finalize=lambda _ids, acc: base + damping * acc,
            )
            for fragment in partition.fragments:
                fid = fragment.fid
                new = np.full(ranks[fid].size, base)
                ids, vals = synced[fid]
                if ids.size:
                    new[plan.slot_of(fid)[ids]] = vals
                ranks[fid] = new

        profile = cluster.finish()
        return AlgorithmResult(values=plan.master_values(ranks), profile=profile)
