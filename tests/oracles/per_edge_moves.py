"""Per-edge moves, per-reprice copy lists and the three-frame pricing
funnel, frozen from before the star transaction.

Verbatim bodies of ``operations.emigrate`` / ``split_migrate_edge`` /
``vmigrate`` / ``vmerge``, ``ME2H._assign_unit`` / ``MV2H._assign_unit``,
``features.copy_keys``, ``CostTracker._reprice`` and the ``h_key`` /
``g_key`` chain ``RescoringModel`` → ``MemoizedCostModel`` → ``_lookup`` as
they stood when every star went edge by edge through ``add_edge_to`` /
``remove_edge_from`` (one ``_notify`` per endpoint per edge) and every price
crossed three frames.  ``HybridPartition.transfer_star``,
``features.priced_copies`` and the one-frame pricers must stay
indistinguishable from these (``tests/core/test_star_moves.py``).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from repro.core.gaincache import _MISS, MemoizedCostModel
from repro.core.tracker import CostTracker
from repro.costmodel.features import FEATURE_NAMES, FeatureKey, copy_key
from repro.costmodel.model import CostModel
from repro.partition.fragment import Edge
from repro.partition.hybrid import HybridPartition, NodeRole, copy_role

Unit = Tuple[int, Tuple[Edge, ...]]


# ----------------------------------------------------------------- moves
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
    for edge in edges:
        partition.add_edge_to(dst, edge)
        u = edge[0] if edge[1] == v else edge[1]
        keep = (
            u != v
            and src_fragment.has_vertex(u)
            and partition.cost_bearing(u, src)
        )
        if not keep:
            partition.remove_edge_from(src, edge)
    if not edges:
        # Isolated candidate: move the bare copy.
        partition.add_vertex_to(dst, v)
        if src_fragment.has_vertex(v):
            partition.remove_vertex_from(src, v)
    else:
        # Placement self-check before the master moves: a no-op when the
        # indexes are consistent (the edge loop put the copy there), but
        # heals a stale _placement entry — e.g. after injected index
        # corruption when dst already held every edge being migrated, so
        # add_edge_to returned early without re-indexing the endpoint.
        partition.add_vertex_to(dst, v)
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
    for edge in sorted(src_fragment.incident(v)):
        partition.add_edge_to(dst, edge)
        partition.remove_edge_from(src, edge)
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
    graph = partition.graph
    dst_fragment = partition.fragments[dst]
    if missing is None:
        missing = [
            edge
            for edge in graph.incident_edges(v)
            if not dst_fragment.has_edge(edge)
        ]
    for edge in missing:
        holders = [
            fid
            for fid in sorted(partition.placement(v))
            if fid != dst and partition.fragments[fid].has_edge(edge)
        ]
        if not holders:
            u = edge[0] if edge[1] == v else edge[1]
            holders = [
                fid
                for fid in sorted(partition.placement(u))
                if fid != dst and partition.fragments[fid].has_edge(edge)
            ]
        partition.add_edge_to(dst, edge)
        for fid in holders:
            u = edge[0] if edge[1] == v else edge[1]
            far_bearing = (
                u != v
                and partition.fragments[fid].has_vertex(u)
                and partition.cost_bearing(u, fid)
            )
            if not far_bearing:
                partition.remove_edge_from(fid, edge)
    partition.set_master(v, dst)


def me2h_assign_unit(
    output: HybridPartition, unit: Unit, fid: int
) -> None:
    v, edges = unit
    if edges:
        for edge in edges:
            output.add_edge_to(fid, edge)
    else:
        output.add_vertex_to(fid, v)
    output.set_master(v, fid)


def mv2h_assign_unit(output: HybridPartition, unit: Unit, fid: int) -> None:
    v, edges = unit
    if edges:
        for edge in edges:
            output.add_edge_to(fid, edge)
    else:
        output.add_vertex_to(fid, v)


# --------------------------------------------------------------- pricing
def copy_keys(
    partition: HybridPartition,
    v: int,
    avg_degree: float,
    hosts: Optional[Iterable[int]] = None,
    priced_only: bool = False,
) -> List[Tuple[int, bool, FeatureKey]]:
    """``(fid, cost_bearing, key)`` for every real copy of ``v``, in one pass.

    What all copies of ``v`` share — global degrees, mirror count, master,
    designated home — is read once; each copy adds three fragment-local
    integers.  ``hosts`` defaults to the placement index's entry; a host
    whose fragment holds no copy (index corruption awaiting repair) is
    skipped.  ``priced_only`` keeps just the copies Eqs. 2-3 charge, the
    cost-bearing ones and the master's: one or two for an e-cut vertex,
    however replicated.  Copies without a master raise ``KeyError``.
    """
    if hosts is None:
        hosts = partition._placement.get(v)
        if not hosts:
            return []
        mirrors = float(len(hosts) - 1)
    else:
        mirrors = float(partition.mirrors(v))
    total, d_in_g, d_out_g = partition._graph_facts.get(v) or partition._facts(v)
    d_in_g, d_out_g, d_g = float(d_in_g), float(d_out_g), float(total)
    home = partition._home(v, total)
    master = partition._masters.get(v)
    if priced_only and home is not None:
        hosts = [fid for fid in {home, master} if fid in hosts]
    avg_degree = float(avg_degree)
    fragments = partition.fragments
    copies = []
    for fid in hosts:
        fragment = fragments[fid]
        bucket = fragment._incident.get(v)
        if bucket is None:
            continue
        role = copy_role(home, fid, len(bucket))
        bearing = role is not NodeRole.DUMMY
        if priced_only and not bearing and fid != master:
            continue
        key = (
            float(fragment._in_deg.get(v, 0)), float(fragment._out_deg.get(v, 0)),
            d_in_g, d_out_g, mirrors, avg_degree,
            0.0 if role is NodeRole.ECUT else 1.0, float(len(bucket)), d_g,
            1.0 if master == fid else 0.0,
        )
        copies.append((fid, bearing, key))
    if copies and master is None:
        raise KeyError(f"vertex {v} has no copies in the partition")
    return copies


class PerEdgeTracker(CostTracker):
    """A :class:`CostTracker` repricing off the per-vertex copy list."""

    def _reprice(self, v: int) -> None:
        """Recompute all of v's contributions; apply deltas to the sums."""
        partition = self.partition
        old_copies = self._copy_contrib.pop(v, None)
        if old_copies:
            for fid, contrib in old_copies.items():
                self._comp[fid] -= contrib
        old_comm = self._comm_contrib.pop(v, None)
        if old_comm is not None:
            self._comm[old_comm[0]] -= old_comm[1]

        # One pass over v's real copies (ghost placement entries — index
        # corruption awaiting the guard's repair — have no copy to price).
        copies = copy_keys(partition, v, self.avg_degree, priced_only=True)
        model = self.cost_model
        new_copies: Dict[int, float] = {}
        for fid, bearing, key in copies:
            if bearing:
                contrib = model.h_key(key)
                if contrib:
                    new_copies[fid] = contrib
                    self._comp[fid] += contrib
        if new_copies:
            self._copy_contrib[v] = new_copies
        if partition.is_border(v):
            master = partition._masters.get(v)
            for fid, _bearing, key in copies:
                if fid == master:
                    break
            else:
                # The master's host is missing from the placement index
                # (or the master points at a non-host): price the copy
                # straight off its fragment, if it has one.
                key = None
                if master is not None:
                    try:
                        key = copy_key(partition, v, master, self.avg_degree)[1]
                    except KeyError:
                        pass
            if key is not None:
                contrib = model.g_key(key)
                self._comm_contrib[v] = (master, contrib)
                self._comm[master] += contrib


class ThreeFrameRescoringModel(CostModel):
    """Counting passthrough: tallies every ``h``/``g`` funnel request.

    Values are delegated untouched, so installing the wrapper is
    bit-identical to evaluating the wrapped model directly.
    """

    def __init__(self, base: CostModel) -> None:
        super().__init__(name=base.name, h=base.h, g=base.g, gate=base.gate)
        self.base = base
        self.calls = 0

    def h_value(self, features: Mapping[str, float]) -> float:
        self.calls += 1
        return self.base.h_value(features)

    def g_value(self, features: Mapping[str, float]) -> float:
        self.calls += 1
        return self.base.g_value(features)

    def h_key(self, key: tuple) -> float:
        self.calls += 1
        return self.base.h_key(key)

    def g_key(self, key: tuple) -> float:
        self.calls += 1
        return self.base.g_key(key)


class ThreeFrameMemoizedCostModel(MemoizedCostModel):
    """The value memo answering keyed requests through ``_lookup``."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        # The frozen methods below, not the instance's one-frame closures.
        self.__dict__.pop("h_key", None)
        self.__dict__.pop("g_key", None)

    def _lookup(self, memo: Dict[tuple, float], key, features, compute) -> float:
        """Memoized ``compute``; only a miss materializes the mapping."""
        stats = self.stats
        value = memo.get(key, _MISS)
        if value is _MISS:
            stats.value_misses += 1
            if features is None:
                features = dict(zip(FEATURE_NAMES, key))
            value = compute(features)
            if len(memo) >= self.max_entries:
                stats.evictions += len(memo)
                memo.clear()
            memo[key] = value
        else:
            stats.value_hits += 1
        return value

    def h_key(self, key: tuple) -> float:
        """:meth:`h_value` of a ready-made key: no mapping on a hit."""
        return self._lookup(self._memo_h, key, None, self.base.h_value)

    def g_key(self, key: tuple) -> float:
        """:meth:`g_value` of a ready-made key: no mapping on a hit."""
        return self._lookup(self._memo_g, key, None, self.base.g_value)
