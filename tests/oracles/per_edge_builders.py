"""Per-edge partition construction, frozen from before the bulk loader.

Verbatim bodies of ``HybridPartition.from_vertex_assignment`` /
``from_edge_assignment`` / ``copy``, ``serialize.partition_from_dict`` and
the rebuild inside ``serialize.restore_partition_state`` as they stood when
every construction site went edge by edge through the listener-aware
``add_vertex_to`` / ``add_edge_to`` primitives.  ``HybridPartition.
_bulk_load`` must stay indistinguishable from these
(``tests/partition/test_bulk_loader.py``).
"""

from __future__ import annotations

from typing import Dict, Sequence

from repro.graph.digraph import Graph
from repro.partition.fragment import Edge, Fragment
from repro.partition.hybrid import HybridPartition
from repro.partition.serialize import FORMAT_VERSION


def from_vertex_assignment(
    graph: Graph, assignment: Sequence[int], num_fragments: int
) -> HybridPartition:
    part = HybridPartition(graph, num_fragments)
    for v in graph.vertices:
        fid = int(assignment[v])
        if not 0 <= fid < num_fragments:
            raise ValueError(f"assignment for vertex {v} out of range")
        part.add_vertex_to(fid, v)
        for edge in graph.incident_edges(v):
            part.add_edge_to(fid, edge)
    for v in graph.vertices:
        part._masters[v] = int(assignment[v])
    return part


def from_edge_assignment(
    graph: Graph, assignment: Dict[Edge, int], num_fragments: int
) -> HybridPartition:
    part = HybridPartition(graph, num_fragments)
    for edge, fid in assignment.items():
        if not 0 <= int(fid) < num_fragments:
            raise ValueError(f"assignment for edge {edge} out of range")
        part.add_edge_to(int(fid), edge)
    for v in graph.vertices:
        if v not in part._placement:
            # Isolated vertices still need a home.
            part.add_vertex_to(v % num_fragments, v)
    return part


def copy(self: HybridPartition) -> HybridPartition:
    clone = HybridPartition(self.graph, self.num_fragments)
    for fid, fragment in enumerate(self.fragments):
        for v in fragment.vertices():
            clone.add_vertex_to(fid, v)
        for edge in fragment.edges():
            clone.add_edge_to(fid, edge)
    clone._masters.update(self._masters)
    return clone


def partition_from_dict(data: Dict, graph: Graph) -> HybridPartition:
    if data.get("version") != FORMAT_VERSION:
        raise ValueError(f"unsupported partition format: {data.get('version')!r}")
    if (
        data["num_vertices"] != graph.num_vertices
        or data["num_edges"] != graph.num_edges
        or data["directed"] != graph.directed
    ):
        raise ValueError("partition payload does not match the supplied graph")
    partition = HybridPartition(graph, int(data["num_fragments"]))
    for fid, fragment in enumerate(data["fragments"]):
        for edge in fragment["edges"]:
            partition.add_edge_to(fid, tuple(edge))
        for v in fragment["vertices"]:
            partition.add_vertex_to(fid, int(v))
    for v, fid in data["masters"].items():
        partition.set_master(int(v), int(fid))
    return partition


def restore_partition_state(partition: HybridPartition, data: Dict) -> None:
    if int(data["num_fragments"]) != partition.num_fragments:
        raise ValueError(
            "snapshot has "
            f"{data['num_fragments']} fragments, partition has "
            f"{partition.num_fragments}"
        )
    stale = {v for v, _hosts in partition.vertex_fragments()}
    partition.fragments = [
        Fragment(fid, partition.graph.directed)
        for fid in range(partition.num_fragments)
    ]
    partition._placement.clear()
    partition._full.clear()
    partition._masters.clear()
    for fid, payload in enumerate(data["fragments"]):
        for edge in payload["edges"]:
            partition.add_edge_to(fid, tuple(edge))
        for v in payload["vertices"]:
            partition.add_vertex_to(fid, int(v))
    for v, fid in data["masters"].items():
        partition._masters[int(v)] = int(fid)
    for v, _hosts in list(partition.vertex_fragments()):
        stale.add(v)
    for v in stale:
        partition._notify(v)
