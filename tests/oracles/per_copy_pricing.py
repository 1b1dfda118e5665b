"""Per-copy role classification and pricing, frozen from before the
per-vertex pass.

Verbatim bodies of ``HybridPartition.designated_home`` / ``role`` /
``cost_bearing``, ``features.vertex_features`` and ``CostTracker._reprice``
as they stood when every copy was classified and priced by its own chain of
method calls.  ``features.copy_keys`` and the tracker built on it must keep
giving these answers (``tests/core/test_one_pass_pricing.py``).
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.core.tracker import CostTracker
from repro.graph.metrics import average_degree
from repro.partition.hybrid import HybridPartition, NodeRole


def designated_home(self: HybridPartition, v: int) -> Optional[int]:
    if self.global_incident_count(v) == 0:
        return self._masters.get(v)
    full = self._full.get(v)
    if not full:
        return None
    master = self._masters.get(v)
    if master in full:
        return master
    return min(full)


def role(self: HybridPartition, v: int, fid: int) -> NodeRole:
    if not self.fragments[fid].has_vertex(v):
        raise KeyError(f"vertex {v} not in fragment {fid}")
    if self.global_incident_count(v) == 0:
        home = designated_home(self, v)
        return NodeRole.ECUT if fid == home else NodeRole.DUMMY
    home = designated_home(self, v)
    if home is not None:
        return NodeRole.ECUT if fid == home else NodeRole.DUMMY
    if self.fragments[fid].incident_count(v) > 0:
        return NodeRole.VCUT
    return NodeRole.DUMMY


def cost_bearing(self: HybridPartition, v: int, fid: int) -> bool:
    return role(self, v, fid) is not NodeRole.DUMMY


def vertex_features(
    partition: HybridPartition, v: int, fid: int, avg_degree: float = None
) -> Dict[str, float]:
    graph = partition.graph
    fragment = partition.fragments[fid]
    if avg_degree is None:
        avg_degree = average_degree(graph)
    copy_role = role(partition, v, fid)
    return {
        "d_in_L": float(fragment.local_in_degree(v)),
        "d_out_L": float(fragment.local_out_degree(v)),
        "d_in_G": float(graph.in_degree(v)),
        "d_out_G": float(graph.out_degree(v)),
        "r": float(partition.mirrors(v)),
        "D": float(avg_degree),
        "I": 0.0 if copy_role is NodeRole.ECUT else 1.0,
        "d_L": float(fragment.incident_count(v)),
        "d_G": float(partition.global_incident_count(v)),
        "M": 1.0 if partition.master(v) == fid else 0.0,
    }


class PerCopyTracker(CostTracker):
    """A :class:`CostTracker` repricing one copy at a time, as it used to."""

    def _reprice(self, v: int) -> None:
        partition = self.partition
        old_copies = self._copy_contrib.pop(v, None)
        if old_copies:
            for fid, contrib in old_copies.items():
                self._comp[fid] -= contrib
        old_comm = self._comm_contrib.pop(v, None)
        if old_comm is not None:
            self._comm[old_comm[0]] -= old_comm[1]

        hosts = partition.placement(v)
        if not hosts:
            return
        new_copies: Dict[int, float] = {}
        for fid in hosts:
            if not partition.fragments[fid].has_vertex(v):
                continue
            if cost_bearing(partition, v, fid):
                features = vertex_features(partition, v, fid, self.avg_degree)
                contrib = self.cost_model.h_value(features)
                if contrib:
                    new_copies[fid] = contrib
                    self._comp[fid] += contrib
        if new_copies:
            self._copy_contrib[v] = new_copies
        if partition.is_border(v):
            master = partition._masters.get(v)
            if master is not None and partition.fragments[master].has_vertex(v):
                features = vertex_features(partition, v, master, self.avg_degree)
                contrib = self.cost_model.g_value(features)
                self._comm_contrib[v] = (master, contrib)
                self._comm[master] += contrib
