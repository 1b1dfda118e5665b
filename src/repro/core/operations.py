"""Structural move operations used by the refiners.

Each operation follows the semantics spelled out by the paper's examples:

* :func:`emigrate` (Example 9) — move an e-cut node and all its incident
  edges to another fragment; boundary edges whose far endpoint still
  computes at the source are *retained* there (leaving a dummy copy of
  the moved vertex), preserving the source's locality;
* :func:`split_migrate_edge` (Example 10) — ESplit's unit move: one edge
  of a candidate vertex migrates (no duplication), turning the vertex
  into a v-cut node;
* :func:`vmigrate` (Section 5.2) — merge a v-cut copy into an existing
  copy at the destination, reducing replication by one;
* :func:`vmerge` (Example 12) — turn a v-cut node into an e-cut node by
  pulling its missing edges into one fragment, migrating each edge or
  replicating it depending on whether its source copy still needs it.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.partition.fragment import Edge
from repro.partition.hybrid import HybridPartition


def emigrate(partition: HybridPartition, v: int, src: int, dst: int) -> None:
    """EMigrate ``(v, E^v_src)`` from fragment ``src`` to ``dst``.

    After the move the destination copy holds every edge the source copy
    held; edges shared with cost-bearing source vertices are duplicated
    (kept at ``src``), others are removed.  The master moves to ``dst``
    so the destination copy becomes the cost-bearing e-cut node even when
    the source retains a full (now dummy) copy.
    """
    if src == dst:
        raise ValueError("EMigrate source and destination must differ")
    src_fragment = partition.fragments[src]
    # Sorted: incident() is a frozenset whose iteration order is not
    # stable across Python builds; the mutation sequence should be.
    edges = sorted(src_fragment.incident(v))
    partition.transfer_star(v, edges, dst, src=src, keep="bearing")
    if not edges:
        # The bare copy of an isolated candidate.
        partition.add_vertex_to(dst, v)
        if src_fragment.has_vertex(v):
            partition.remove_vertex_from(src, v)
    partition.set_master(v, dst)


def split_migrate_edge(
    partition: HybridPartition, v: int, edge: Edge, src: int, dst: int
) -> None:
    """ESplit's unit move: migrate one incident edge of ``v`` to ``dst``.

    The edge leaves ``src`` (ESplit migrates, it does not replicate —
    Fig. 2(b)); endpoint copies left edge-less at the source are pruned
    by the partition primitives.
    """
    if src == dst:
        return
    partition.add_edge_to(dst, edge)
    partition.remove_edge_from(src, edge)


def vmigrate(partition: HybridPartition, v: int, src: int, dst: int) -> None:
    """VMigrate ``(v, E^v_src)`` into the existing copy of ``v`` at ``dst``.

    Requires a copy of ``v`` at ``dst`` (the locality condition of
    Section 5.2).  Reduces the replication of ``v`` by one.
    """
    if src == dst:
        raise ValueError("VMigrate source and destination must differ")
    if not partition.fragments[dst].has_vertex(v):
        raise ValueError(f"VMigrate destination {dst} holds no copy of vertex {v}")
    src_fragment = partition.fragments[src]
    partition.transfer_star(
        v, sorted(src_fragment.incident(v)), dst, src=src, keep="none"
    )
    if src_fragment.has_vertex(v) and src_fragment.incident_count(v) == 0:
        partition.remove_vertex_from(src, v)


def vmerge(
    partition: HybridPartition,
    v: int,
    dst: int,
    missing: Optional[Iterable[Edge]] = None,
) -> None:
    """VMerge: make ``v`` an e-cut node at ``dst`` (Fig. 4, lines 11-14).

    Every edge of ``Ē^v_dst = E_v \\ E^v_dst`` is brought to ``dst``.  At
    each source fragment the edge is *migrated* (removed) unless its far
    endpoint's copy there is cost-bearing, in which case it is
    *replicated* — the "migrate or replicate based on the respective
    costs" rule.  Other copies of ``v`` become dummies (the master moves
    to ``dst``, making it the designated e-cut node).
    """
    if missing is None:
        has_edge = partition.fragments[dst].has_edge
        missing = [e for e in partition.graph.incident_edges(v) if not has_edge(e)]
    partition.transfer_star(v, list(missing), dst, keep="bearing")
    partition.set_master(v, dst)
