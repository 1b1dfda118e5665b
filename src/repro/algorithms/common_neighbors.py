"""Partition-transparent common neighbors (CN) [36].

For every vertex ``v``, every pair ``(u, w)`` of distinct in-neighbors of
``v`` gains one common (outgoing) neighbor — exactly the aggregation of
Example 1.  Under a hybrid partition:

* if ``v`` is **e-cut**, its designated copy holds all in-neighbors and
  counts all pairs locally — zero communication, work ∝ d⁺_L·d⁺_G;
* if ``v`` is **v-cut**, each copy scans its local in-neighbor list and
  ships it to the master, which merges (deduplicating replicated edges)
  and counts the pairs — communication ∝ degree × mirrors.

A degree threshold ``theta`` skips high-degree common neighbors, the
memory-control practice the paper applies to Twitter (Exp-1: θ = 300);
that eligibility mask is the ``cn`` row of
:data:`~repro.runtime.kernels.KERNELS`, reached through one
``Cluster.map`` over every copy.

Result values: total pair count, or a ``{(u, w): count}`` mapping when
``return_pairs=True`` (tests use the mapping; benchmarks the scalar).
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.algorithms.base import Algorithm
from repro.graph.digraph import _sorted_unique
from repro.partition.hybrid import HybridPartition
from repro.runtime.bsp import Cluster
from repro.runtime.kernels import KERNELS
from repro.runtime.plan import ECUT as ROLE_ECUT
from repro.runtime.plan import VCUT as ROLE_VCUT
from repro.runtime.plan import plan_for


class CommonNeighbors(Algorithm):
    """Count common out-neighbors for all vertex pairs."""

    name = "cn"
    run_params = ("theta", "return_pairs")

    def __init__(self, theta: Optional[float] = None, return_pairs: bool = False) -> None:
        self.theta = theta
        self.return_pairs = return_pairs

    def _run(
        self, partition: HybridPartition, cluster: Cluster, params: Dict[str, Any]
    ) -> Any:
        """Common-neighbor pairs over the partition (see class docs)."""
        theta = params.get("theta", self.theta)
        return_pairs = bool(params.get("return_pairs", self.return_pairs))
        if theta is None:
            theta = math.inf
        # The master-side merge of a v-cut vertex's partial in-neighbor
        # lists equals its *global* unique in-neighbor row: every in-edge
        # lives in some fragment, and a fragment holding one has the
        # target as a bearing (non-dummy) copy, so the shipped lists
        # jointly cover the global set.  E-cut homes hold all incident
        # edges, so their local list is the global row too.  Both cases
        # therefore read from one shared global in-neighbor CSR.
        plan = plan_for(partition)
        gin = plan.global_in_csr()

        pair_counts: Dict[Tuple[int, int], int] = {}
        total = 0
        cluster.set_snapshot(lambda: (total, pair_counts))

        def add_pairs(neighbors: List[int]) -> None:
            for i in range(len(neighbors)):
                for j in range(i + 1, len(neighbors)):
                    key = (neighbors[i], neighbors[j])
                    pair_counts[key] = pair_counts.get(key, 0) + 1

        # Superstep 1: e-cut vertices count locally; v-cut copies ship
        # their local in-neighbor lists to the master.
        vcut_parts = []
        kernel = KERNELS["cn"]
        tables = kernel.tables(plan)
        fids = [f.fid for f in partition.fragments if plan.verts(f.fid).size]
        mask = cluster.map(kernel, tables, (), fids, (theta,))
        cuts = tables.cuts["copies"]
        for fid in fids:
            eligible = mask[cuts[fid] : cuts[fid + 1]]
            if not eligible.any():
                continue
            verts = plan.verts(fid)
            roles = plan.roles(fid)
            lin = plan.cn_local_in_counts(fid)
            cluster.charge_bulk(fid, lin[eligible], vertices=verts[eligible])
            ecut = eligible & (roles == ROLE_ECUT)
            if ecut.any():
                evs = verts[ecut]
                k = gin.counts[evs]
                ops = k * (k - 1) // 2
                cluster.charge_bulk(fid, ops, vertices=evs)
                total += int(ops.sum())
                if return_pairs:
                    for v in evs.tolist():
                        start = int(gin.indptr[v])
                        stop = int(gin.indptr[v + 1])
                        if stop - start >= 2:
                            add_pairs(gin.nbrs[start:stop].tolist())
            vcut = eligible & (roles == ROLE_VCUT)
            if vcut.any():
                vcut_parts.append((np.full(vcut.sum(), fid), verts[vcut], lin[vcut]))
        if vcut_parts:
            # Every fragment's lists in one fid-major stream.
            senders, vs, lens = map(np.concatenate, zip(*vcut_parts))
            cluster.send_batch(
                senders, plan.master_of[vs], 8.0 * np.maximum(1, lens), master_vertices=vs
            )
        cluster.deliver()

        # Superstep 2: masters merge partial lists and count cross pairs.
        if vcut_parts:
            uvs = _sorted_unique(vs)
            k = gin.counts[uvs]
            ops = k * (k - 1) // 2
            cluster.charge_bulk(plan.master_of[uvs], ops, vertices=uvs)
            total += int(ops.sum())
            if return_pairs:
                for v in uvs.tolist():
                    start = int(gin.indptr[v])
                    stop = int(gin.indptr[v + 1])
                    if stop - start >= 2:
                        add_pairs(gin.nbrs[start:stop].tolist())
        cluster.deliver()

        return pair_counts if return_pairs else total
