"""``FragmentPlan``'s table builders, frozen from before they were vectorised.

Verbatim bodies of the routing loop of ``FragmentPlan.__init__``, of
``roles``, ``home_of`` and ``owned_edges``, and of
``algorithms.base.compute_edge_owners``, as they stood when each table was
filled by one call into ``HybridPartition`` per vertex, copy or edge.  The
array-derived tables of ``repro.runtime.plan`` must keep giving these
answers, dtype and order included (``tests/runtime/test_plan_tables.py``).
Re-frozen once in canonical order: a fragment's vertices and edges are
walked sorted, where they were walked in index insertion order.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.partition.fragment import Edge
from repro.partition.hybrid import HybridPartition, NodeRole

ECUT = 0
VCUT = 1
DUMMY = 2

_ROLE_CODE = {NodeRole.ECUT: ECUT, NodeRole.VCUT: VCUT, NodeRole.DUMMY: DUMMY}

_EMPTY = np.empty(0, dtype=np.int64)


def routing_tables(partition: HybridPartition) -> Dict[str, np.ndarray]:
    """The eager arrays of ``FragmentPlan.__init__``, keyed by attribute name."""
    n = partition.graph.num_vertices
    master_of = np.full(n, -1, dtype=np.int64)
    rep_count = np.zeros(n, dtype=np.int64)
    border_mask = np.zeros(n, dtype=bool)
    pair_v: List[int] = []
    pair_f: List[int] = []
    for v, hosts in partition.vertex_fragments():
        master_of[v] = partition.master(v)
        rep_count[v] = len(hosts)
        border_mask[v] = len(hosts) > 1
        for f in sorted(hosts):
            pair_v.append(v)
            pair_f.append(f)
    pv = np.asarray(pair_v, dtype=np.int64)
    pf = np.asarray(pair_f, dtype=np.int64)
    order = np.argsort(pv, kind="stable")  # fids already sorted per v
    place_fids = pf[order] if pv.size else _EMPTY
    counts = np.bincount(pv, minlength=n) if pv.size else np.zeros(n, np.int64)
    place_indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=place_indptr[1:])
    return {
        "master_of": master_of,
        "rep_count": rep_count,
        "border_mask": border_mask,
        "place_indptr": place_indptr,
        "place_fids": place_fids,
    }


def roles(partition: HybridPartition, fid: int) -> np.ndarray:
    verts = np.array(sorted(partition.fragments[fid].vertices()), dtype=np.int64)
    return np.fromiter(
        (_ROLE_CODE[partition.role(int(v), fid)] for v in verts),
        dtype=np.int8,
        count=verts.size,
    )


def home_of(partition: HybridPartition) -> np.ndarray:
    num_vertices = partition.graph.num_vertices
    out = np.full(num_vertices, -1, dtype=np.int64)
    for v in range(num_vertices):
        home = partition.designated_home(v)
        if home is not None:
            out[v] = home
    return out


def compute_edge_owners(
    partition: HybridPartition, target_aware: bool = False
) -> Dict[Edge, int]:
    holders: Dict[Edge, list] = {}
    for fragment in partition.fragments:
        fid = fragment.fid
        for edge in fragment.edges():
            holders.setdefault(edge, []).append(fid)
    owners: Dict[Edge, int] = {}
    for edge, fids in holders.items():
        if not target_aware or len(fids) == 1:
            owners[edge] = min(fids)
            continue
        target = edge[1]
        home = partition.designated_home(target)
        if home is not None and home in fids:
            owners[edge] = home
            continue
        bearing = [f for f in fids if partition.cost_bearing(target, f)]
        owners[edge] = min(bearing) if bearing else min(fids)
    return owners


def owned_edges(
    partition: HybridPartition, target_aware: bool
) -> Dict[int, Tuple[np.ndarray, np.ndarray]]:
    """``{fid: FragmentPlan.owned_edges(fid, target_aware)}`` for every fid."""
    owners = compute_edge_owners(partition, target_aware=bool(target_aware))
    cache = {}
    for fragment in partition.fragments:
        f = fragment.fid
        kept = [e for e in sorted(fragment.edges()) if owners[e] == f]
        if kept:
            arr = np.asarray(kept, dtype=np.int64)
            cache[f] = (arr[:, 0].copy(), arr[:, 1].copy())
        else:
            cache[f] = (_EMPTY, _EMPTY)
    return cache
