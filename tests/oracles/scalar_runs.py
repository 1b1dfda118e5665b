"""The scalar BSP loops and the per-message master sync, frozen.

Verbatim bodies of the ``use_kernels=False`` route of
``repro.algorithms.{pagerank,wcc,sssp,common_neighbors,triangles}`` and of
``repro.runtime.sync.sync_by_master`` as they stood when every algorithm
shipped this loop next to its vectorized kernel, selected by a flag.  Only
the imports and the entry points changed: each class below subclasses the
shipped algorithm (constructor defaults, ``run_params`` and the
``_cluster`` param handling are inherited) and its ``run`` is the old
``run`` minus the ``use_kernels`` fork.  Walks the ``HybridPartition``
edge by edge, sends and answers one message at a time, never touches a
``FragmentPlan``.  The kernels must keep producing these runs' values,
makespans, ``RunProfile`` records (charges, link bytes) and checkpoint blobs
(``tests/runtime/test_kernel_differential.py`` and the hetero / failover /
TC-pump differentials).  Re-frozen once in canonical order: a fragment's
vertices and edges, and a vertex's hosts, are walked sorted, as the plan
lays them out (DESIGN §8.2), where they were walked in index insertion
order (and hash order, for hosts).
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.algorithms.base import AlgorithmResult, global_or
from repro.algorithms.common_neighbors import CommonNeighbors
from repro.algorithms.pagerank import PageRank
from repro.algorithms.registry import get_algorithm
from repro.algorithms.sssp import INF, SingleSourceShortestPath
from repro.algorithms.triangles import TriangleCounting
from repro.algorithms.wcc import WeaklyConnectedComponents
from repro.partition.hybrid import HybridPartition, NodeRole
from repro.runtime.bsp import Cluster
from repro.runtime.costclock import CostClock
from repro.runtime.sync import VALUE_BYTES
from tests.oracles.plan_tables import compute_edge_owners


def sync_by_master(
    cluster: Cluster,
    partial_values: Dict[int, Dict[int, Any]],
    combine: Callable[[Any, Any], Any],
    value_bytes: Optional[Callable[[Any], float]] = None,
    finalize: Optional[Callable[[int, Any], Any]] = None,
) -> Dict[int, Dict[int, Any]]:
    """Aggregate per-copy partial values at each vertex's master.

    Parameters
    ----------
    cluster:
        The BSP cluster; two supersteps are consumed.
    partial_values:
        ``{fid: {vertex: value}}`` — each worker's local partial per vertex
        copy it holds.  Vertices hosted by a single fragment are combined
        locally at zero communication cost.
    combine:
        Associative/commutative reducer applied at the master.
    value_bytes:
        Wire-size estimator for one value (default: 12 bytes).
    finalize:
        Optional ``(vertex, combined) -> value`` applied at the master
        before broadcasting back.

    Returns
    -------
    ``{fid: {vertex: combined_value}}`` with the combined value available
    at **every** fragment holding a copy of the vertex.
    """
    partition = cluster.partition
    size_of = value_bytes or (lambda _val: float(VALUE_BYTES))

    # Superstep A: mirrors ship partials to the master worker.  Sender
    # fids and vertices are visited in sorted order so the seeded fault
    # stream sees one canonical send sequence regardless of how the
    # caller's dicts were built (the vectorized path replays it).
    for fid in sorted(partial_values):
        values = partial_values[fid]
        for v in sorted(values):
            master = partition.master(v)
            cluster.send(
                fid,
                master,
                ("partial", v, values[v]),
                nbytes=size_of(values[v]),
                master_vertex=v if partition.is_border(v) else None,
            )
    inboxes = cluster.deliver()

    # Superstep B: masters combine and broadcast back to mirrors.  The
    # combine/finalize work is charged to the vertex's *master* worker
    # as recorded in the partition, not to whichever inbox the partial
    # happened to land in.
    combined: Dict[int, Any] = {}
    for fid in range(cluster.num_workers):
        for _tag, v, value in inboxes[fid]:
            if v in combined:
                combined[v] = combine(combined[v], value)
                cluster.charge(partition.master(v), 1)
            else:
                combined[v] = value
    if finalize is not None:
        for v in combined:
            combined[v] = finalize(v, combined[v])
            cluster.charge(partition.master(v), 1)
    for v, value in combined.items():
        master = partition.master(v)
        for fid in sorted(partition.placement(v)):
            cluster.send(
                master,
                fid,
                ("combined", v, value),
                nbytes=size_of(value),
                master_vertex=v if partition.is_border(v) else None,
            )
    inboxes = cluster.deliver()

    out: Dict[int, Dict[int, Any]] = {f: {} for f in range(cluster.num_workers)}
    for fid in range(cluster.num_workers):
        for _tag, v, value in inboxes[fid]:
            out[fid][v] = value
    return out


class ScalarPageRank(PageRank):
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

        owners = compute_edge_owners(partition, target_aware=graph.directed)

        # Every fragment holds the current rank of each vertex copy.
        ranks: Dict[int, Dict[int, float]] = {
            f.fid: {v: 1.0 / n for v in sorted(f.vertices())} for f in partition.fragments
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
                for edge in sorted(fragment.edges()):
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
                for v in sorted(fragment.vertices()):
                    local_ranks[v] = updates.get(v, base)

        profile = cluster.finish()
        values: Dict[int, float] = {}
        for v, _hosts in partition.vertex_fragments():
            values[v] = ranks[partition.master(v)][v]
        return AlgorithmResult(values=values, profile=profile)


class ScalarWeaklyConnectedComponents(WeaklyConnectedComponents):
    def run(
        self,
        partition: HybridPartition,
        clock: Optional[CostClock] = None,
        **params: Any,
    ) -> AlgorithmResult:
        """Run WCC to fixpoint over the partition (see class docs)."""
        max_iterations = int(params.get("max_iterations", self.max_iterations))
        cluster = self._cluster(partition, clock, params)

        labels: Dict[int, Dict[int, int]] = {
            f.fid: {v: v for v in sorted(f.vertices())} for f in partition.fragments
        }
        cluster.set_snapshot(lambda: labels)

        for _ in range(max_iterations):
            proposals: Dict[int, Dict[int, int]] = {
                fid: {} for fid in range(cluster.num_workers)
            }
            for fragment in partition.fragments:
                fid = fragment.fid
                local = labels[fid]
                prop = proposals[fid]
                # Local relaxation sweep: each cost-bearing copy scans its
                # local edges (a dummy copy's edges are duplicates of the
                # designated home's, so skipping it loses nothing).
                for v in sorted(fragment.vertices()):
                    if not partition.cost_bearing(v, fid):
                        continue
                    best = local[v]
                    for edge in fragment.incident(v):
                        u = edge[0] if edge[1] == v else edge[1]
                        if local[u] < best:
                            best = local[u]
                        cluster.charge(fid, 1, vertex=v)
                    if best < local[v]:
                        prop[v] = best
                # Replicated vertices must sync even without a local win,
                # so mirrors learn about remote improvements.
                for v in sorted(fragment.vertices()):
                    if partition.is_border(v) and v not in prop:
                        prop[v] = min(prop.get(v, local[v]), local[v])

            combined = sync_by_master(cluster, proposals, combine=min)

            changed = {fid: False for fid in range(cluster.num_workers)}
            for fragment in partition.fragments:
                fid = fragment.fid
                local = labels[fid]
                for v, label in combined[fid].items():
                    if label < local[v]:
                        local[v] = label
                        changed[fid] = True
            if not global_or(cluster, changed):
                break

        profile = cluster.finish()
        values = {
            v: labels[partition.master(v)][v]
            for v, _hosts in partition.vertex_fragments()
        }
        return AlgorithmResult(values=values, profile=profile)


class ScalarSingleSourceShortestPath(SingleSourceShortestPath):
    def run(
        self,
        partition: HybridPartition,
        clock: Optional[CostClock] = None,
        **params: Any,
    ) -> AlgorithmResult:
        """Run SSSP from ``source`` over the partition (see class docs)."""
        source = int(params.get("source", self.source))
        max_iterations = int(params.get("max_iterations", self.max_iterations))
        graph = partition.graph
        cluster = self._cluster(partition, clock, params)

        dist: Dict[int, Dict[int, float]] = {
            f.fid: {v: INF for v in sorted(f.vertices())} for f in partition.fragments
        }
        active: Dict[int, Set[int]] = {f.fid: set() for f in partition.fragments}
        cluster.set_snapshot(lambda: (dist, active))
        for fid in sorted(partition.placement(source)):
            dist[fid][source] = 0.0
            active[fid].add(source)

        for _ in range(max_iterations):
            proposals: Dict[int, Dict[int, float]] = {
                fid: {} for fid in range(cluster.num_workers)
            }
            for fragment in partition.fragments:
                fid = fragment.fid
                local = dist[fid]
                prop = proposals[fid]
                for u in active[fid]:
                    # Dummy copies hold duplicate edges of the designated
                    # home; only cost-bearing copies relax.
                    if not partition.cost_bearing(u, fid):
                        continue
                    du = local[u]
                    for edge in fragment.incident(u):
                        if graph.directed:
                            if edge[0] != u:
                                continue
                            w = edge[1]
                        else:
                            w = edge[0] if edge[1] == u else edge[1]
                        cluster.charge(fid, 1, vertex=u)
                        cand = du + 1.0
                        if cand < local.get(w, INF) and cand < prop.get(w, INF):
                            prop[w] = cand

            combined = sync_by_master(cluster, proposals, combine=min)

            changed = {fid: False for fid in range(cluster.num_workers)}
            for fragment in partition.fragments:
                fid = fragment.fid
                local = dist[fid]
                now_active: Set[int] = set()
                for v, d in combined[fid].items():
                    if d < local[v]:
                        local[v] = d
                        now_active.add(v)
                        changed[fid] = True
                active[fid] = now_active
            if not global_or(cluster, changed):
                break

        profile = cluster.finish()
        values = {
            v: dist[partition.master(v)][v]
            for v, _hosts in partition.vertex_fragments()
        }
        return AlgorithmResult(values=values, profile=profile)


class ScalarCommonNeighbors(CommonNeighbors):
    def run(
        self,
        partition: HybridPartition,
        clock: Optional[CostClock] = None,
        **params: Any,
    ) -> AlgorithmResult:
        """Count common-neighbor pairs over the partition (see class docs)."""
        theta = params.get("theta", self.theta)
        return_pairs = bool(params.get("return_pairs", self.return_pairs))
        if theta is None:
            theta = math.inf
        graph = partition.graph
        cluster = self._cluster(partition, clock, params)

        pair_counts: Dict[Tuple[int, int], int] = {}
        total = 0
        cluster.set_snapshot(lambda: (total, pair_counts))

        def count_pairs(fid: int, v: int, neighbors: List[int]) -> None:
            nonlocal total
            k = len(neighbors)
            ops = k * (k - 1) // 2
            cluster.charge(fid, ops, vertex=v)
            total += ops
            if return_pairs:
                neighbors = sorted(set(neighbors))
                for i in range(len(neighbors)):
                    for j in range(i + 1, len(neighbors)):
                        key = (neighbors[i], neighbors[j])
                        pair_counts[key] = pair_counts.get(key, 0) + 1

        # Superstep 1: e-cut vertices count locally; v-cut copies ship
        # their local in-neighbor lists to the master.
        for fragment in partition.fragments:
            fid = fragment.fid
            for v in sorted(fragment.vertices()):
                if graph.in_degree(v) > theta:
                    continue
                role = partition.role(v, fid)
                if role is NodeRole.DUMMY:
                    continue
                local_in = sorted(set(fragment.local_in_neighbors(v)))
                cluster.charge(fid, len(local_in), vertex=v)
                if role is NodeRole.ECUT:
                    count_pairs(fid, v, local_in)
                else:  # v-cut copy: master merges the partial lists
                    master = partition.master(v)
                    cluster.send(
                        fid,
                        master,
                        ("inlist", v, local_in),
                        nbytes=8.0 * max(1, len(local_in)),
                        master_vertex=v,
                    )
        inboxes = cluster.deliver()

        # Superstep 2: masters merge partial lists and count cross pairs.
        merged: Dict[int, set] = {}
        merged_fid: Dict[int, int] = {}
        for fid in range(cluster.num_workers):
            for _tag, v, local_in in inboxes[fid]:
                merged.setdefault(v, set()).update(local_in)
                merged_fid[v] = fid
        for v, neighbors in merged.items():
            count_pairs(merged_fid[v], v, sorted(neighbors))
        cluster.deliver()

        profile = cluster.finish()
        values: Any = pair_counts if return_pairs else total
        return AlgorithmResult(values=values, profile=profile)


class ScalarTriangleCounting(TriangleCounting):
    def run(
        self,
        partition: HybridPartition,
        clock: Optional[CostClock] = None,
        **params: Any,
    ) -> AlgorithmResult:
        """Count triangles over the partition (see class docs)."""
        cluster = self._cluster(partition, clock, params)
        triangles = _run_scalar(partition, cluster)
        return AlgorithmResult(values=triangles, profile=cluster.finish())


def _run_scalar(partition: HybridPartition, cluster: Cluster) -> int:
    """The ``use_kernels=False`` reference: one message at a time."""
    graph = partition.graph

    def order(v: int) -> Tuple[int, int]:
        return (graph.degree(v), v)

    def local_has(fid: int, a: int, b: int) -> bool:
        fragment = partition.fragments[fid]
        return fragment.has_edge(graph.canonical_edge(a, b)) or (
            graph.directed and fragment.has_edge(graph.canonical_edge(b, a))
        )

    triangles = 0
    # qid -> [outstanding replies, found flag]
    pending: Dict[int, List] = {}
    next_qid = 0
    cluster.set_snapshot(lambda: (triangles, pending))

    def remote_check(fid: int, pivot: int, a: int, b: int) -> None:
        """Query remote fragments for closing edge (a, b)."""
        nonlocal next_qid
        # One query to a's designated home suffices when a is e-cut
        # (the home holds all of a's edges); otherwise every bearing
        # copy of a must be asked (dummy copies hold only duplicates).
        home = partition.designated_home(a)
        if home is not None:
            targets = [] if home == fid else [home]
        else:
            targets = [
                f
                for f in sorted(partition.placement(a))
                if f != fid and partition.cost_bearing(a, f)
            ]
        if not targets:
            return  # fid already holds all relevant edges of a
        qid = next_qid
        next_qid += 1
        pending[qid] = [len(targets), False]
        for target in targets:
            cluster.send(
                fid,
                target,
                ("query", qid, a, b, fid),
                nbytes=20.0,
                master_vertex=pivot if partition.is_border(pivot) else None,
            )

    def check_wedge(fid: int, pivot: int, a: int, b: int) -> None:
        """Verify closing edge (a, b) for a wedge generated at ``fid``."""
        nonlocal triangles
        cluster.charge(fid, 1, vertex=pivot)
        if local_has(fid, a, b):
            triangles += 1
            return
        remote_check(fid, pivot, a, b)

    def process_pivot(fid: int, pivot: int, neighbors: Set[int]) -> None:
        ordered = sorted((w for w in neighbors if order(w) > order(pivot)), key=order)
        k = len(ordered)
        cluster.charge(fid, k * (k - 1) // 2, vertex=pivot)
        for i in range(k):
            for j in range(i + 1, k):
                check_wedge(fid, pivot, ordered[i], ordered[j])

    # Superstep 1: e-cut pivots work locally; v-cut copies ship lists.
    for fragment in partition.fragments:
        fid = fragment.fid
        for v in sorted(fragment.vertices()):
            role = partition.role(v, fid)
            if role is NodeRole.DUMMY:
                continue
            local_nbrs = set(fragment.local_out_neighbors(v)) | set(
                fragment.local_in_neighbors(v)
            )
            local_nbrs.discard(v)
            cluster.charge(fid, max(1, len(local_nbrs)), vertex=v)
            if role is NodeRole.ECUT:
                process_pivot(fid, v, local_nbrs)
            else:
                cluster.send(
                    fid,
                    partition.master(v),
                    ("inlist", v, sorted(local_nbrs)),
                    nbytes=8.0 * max(1, len(local_nbrs)),
                    master_vertex=v,
                )

    # Pump supersteps until all queries/answers/list merges settle.
    merged: Dict[int, Set[int]] = {}
    merged_at: Dict[int, int] = {}
    inboxes = cluster.deliver()
    while any(inboxes.values()):
        # Merge v-cut neighbor lists that arrived this superstep.
        arrivals: Set[int] = set()
        for fid in range(cluster.num_workers):
            for msg in inboxes[fid]:
                if msg[0] == "inlist":
                    _tag, v, nbrs = msg
                    merged.setdefault(v, set()).update(nbrs)
                    merged_at[v] = fid
                    arrivals.add(v)
        for v in sorted(arrivals):
            process_pivot(merged_at[v], v, merged.pop(v))
        for fid in range(cluster.num_workers):
            for msg in inboxes[fid]:
                tag = msg[0]
                if tag == "query":
                    _tag, qid, a, b, reply_to = msg
                    found = local_has(fid, a, b)
                    cluster.charge(fid, 1)
                    cluster.send(fid, reply_to, ("answer", qid, found), nbytes=9.0)
                elif tag == "answer":
                    _tag, qid, found = msg
                    entry = pending[qid]
                    entry[0] -= 1
                    entry[1] = entry[1] or found
                    if entry[0] == 0:
                        if entry[1]:
                            triangles += 1
                        del pending[qid]
        inboxes = cluster.deliver()
    return triangles


_SCALAR = {
    cls.name: cls
    for cls in (
        ScalarPageRank,
        ScalarWeaklyConnectedComponents,
        ScalarSingleSourceShortestPath,
        ScalarCommonNeighbors,
        ScalarTriangleCounting,
    )
}


def run(
    name: str,
    partition: HybridPartition,
    clock: Optional[CostClock] = None,
    **params: Any,
) -> AlgorithmResult:
    """``get_algorithm(name).run(partition, clock, **params)``, scalar route."""
    return _SCALAR[name]().run(partition, clock, **params)


#: the shipped route and this reference under one call shape, for suites
#: parametrized over both
ROUTES = {
    "kernels": lambda name, partition, **params: get_algorithm(name).run(
        partition, **params
    ),
    "scalar": run,
}
