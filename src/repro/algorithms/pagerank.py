"""Partition-transparent PageRank (PR) [13].

Pull/push hybrid under BSP: each superstep, every fragment scatters rank
mass along the local edges it *owns* (replicated edges are processed once,
by their owning fragment), partial sums are aggregated at each vertex's
master, damped, and broadcast back to all copies.

Cost shape: scatter work per target copy is proportional to its local
in-degree — the ``h_PR ∝ d⁺_L`` of Table 5 — and synchronization traffic
per replicated vertex is proportional to its mirror count ``r`` —
``g_PR ∝ r``.

Two implementations share the cost model bit for bit: the scalar
reference loop below and a vectorized kernel over the partition's
:class:`~repro.runtime.plan.FragmentPlan` (default; ``use_kernels=False``
selects the scalar oracle).
"""

from __future__ import annotations

from typing import Any, Dict, Optional

import numpy as np

from repro.algorithms.base import Algorithm, AlgorithmResult, compute_edge_owners
from repro.partition.hybrid import HybridPartition
from repro.runtime.bsp import Cluster
from repro.runtime.costclock import CostClock
from repro.runtime.plan import get_plan
from repro.runtime.sync import SyncRoute, sync_by_master


class PageRank(Algorithm):
    """PageRank with a fixed iteration count (default 10).

    Parameters accepted by :meth:`run`:

    * ``iterations`` — number of power iterations;
    * ``damping`` — damping factor (default 0.85);
    * ``use_kernels`` — vectorized path on/off (default: process-wide
      setting, normally on).

    Result values: ``{vertex: rank}`` over all vertices.
    """

    name = "pr"

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
        use_kernels = self._use_kernels(params)
        graph = partition.graph
        n = max(1, graph.num_vertices)
        base = (1.0 - damping) / n

        cluster = self._cluster(partition, clock, params)
        self._check_backend(cluster, use_kernels)
        if use_kernels:
            return self._run_kernel(partition, cluster, iterations, damping, base)

        owners = compute_edge_owners(partition, target_aware=graph.directed)

        # Every fragment holds the current rank of each vertex copy.
        ranks: Dict[int, Dict[int, float]] = {
            f.fid: {v: 1.0 / n for v in f.vertices()} for f in partition.fragments
        }
        cluster.set_snapshot(lambda: ranks)
        # The scatter degree is the out-degree on both branches (the
        # undirected CSR stores both directions), materialized once as
        # Python ints instead of per-edge CSR lookups.
        degs = graph.out_degrees().tolist()

        for _ in range(iterations):
            sums: Dict[int, Dict[int, float]] = {
                fid: {} for fid in range(cluster.num_workers)
            }
            for fragment in partition.fragments:
                fid = fragment.fid
                local_sums = sums[fid]
                local_ranks = ranks[fid]
                for edge in fragment.edges():
                    if owners[edge] != fid:
                        continue
                    u, w = edge
                    if graph.directed:
                        targets = ((u, w),)
                    else:
                        targets = ((u, w), (w, u)) if u != w else ((u, w),)
                    for src, dst in targets:
                        deg = degs[src]
                        if deg == 0:
                            continue
                        local_sums[dst] = local_sums.get(dst, 0.0) + local_ranks[src] / deg
                        cluster.charge(fid, 1, vertex=dst)

            combined = sync_by_master(
                cluster,
                sums,
                combine=lambda a, b: a + b,
                finalize=lambda _v, total: base + damping * total,
            )
            for fragment in partition.fragments:
                fid = fragment.fid
                updates = combined[fid]
                local_ranks = ranks[fid]
                for v in fragment.vertices():
                    local_ranks[v] = updates.get(v, base)

        profile = cluster.finish()
        values: Dict[int, float] = {}
        for v, _hosts in partition.vertex_fragments():
            values[v] = ranks[partition.master(v)][v]
        return AlgorithmResult(values=values, profile=profile)

    def _run_kernel(
        self,
        partition: HybridPartition,
        cluster: Cluster,
        iterations: int,
        damping: float,
        base: float,
    ) -> AlgorithmResult:
        """Vectorized twin of the scalar loop (bit-identical output)."""
        graph = partition.graph
        n = max(1, graph.num_vertices)
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
