"""Partition serialization.

Partitioning big graphs is expensive; deployments partition once and
reuse the result across runs.  This module saves/loads hybrid and
composite partitions as JSON: fragment contents (vertex copies and local
edges), the master mapping, and — for composites — the per-algorithm
structure.  The graph itself is saved separately
(:mod:`repro.graph.io`); loading validates that the partition matches
the supplied graph.
"""

from __future__ import annotations

import json
import os
from typing import Dict, Union

import numpy as np

from repro.graph.digraph import Graph
from repro.partition.composite import CompositePartition
from repro.partition.fragment import Fragment
from repro.partition.hybrid import HybridPartition, _block

PathLike = Union[str, "os.PathLike[str]"]

FORMAT_VERSION = 1


def partition_to_dict(partition: HybridPartition) -> Dict:
    """JSON-serializable representation of a hybrid partition, in
    canonical order: vertices, edges and master keys ascending."""
    return {
        "version": FORMAT_VERSION,
        "num_fragments": partition.num_fragments,
        "num_vertices": partition.graph.num_vertices,
        "num_edges": partition.graph.num_edges,
        "directed": partition.graph.directed,
        "fragments": [
            {
                "vertices": sorted(fragment.vertices()),
                "edges": sorted(fragment.edges()),
            }
            for fragment in partition.fragments
        ],
        "masters": {str(v): partition.master(v) for v, _h in partition.vertex_fragments()},
    }


def _payload_events(data: Dict, graph: Graph) -> np.ndarray:
    """Loader events of a payload: per fragment its edges, then its vertices.

    Raises ``ValueError`` for the first edge the graph lacks or vertex it
    does not have, in payload order.
    """
    blocks = []
    for fid, fragment in enumerate(data["fragments"]):
        src, dst = np.array(fragment["edges"], dtype=np.int64).reshape(-1, 2).T
        exists = graph.has_edges(src, dst)
        if not exists.all():
            bad = int(np.argmin(exists))
            raise ValueError(f"edge {(int(src[bad]), int(dst[bad]))} does not exist in the graph")
        if not graph.directed:
            src, dst = np.minimum(src, dst), np.maximum(src, dst)
        vertices = np.array(fragment["vertices"], dtype=np.int64).reshape(-1)
        outside = (vertices < 0) | (vertices >= graph.num_vertices)
        if outside.any():
            raise ValueError(f"vertex {int(vertices[outside][0])} does not exist in the graph")
        blocks += [_block(fid, src, dst), _block(fid, vertices, -1)]
    return np.concatenate(blocks, axis=1) if blocks else np.empty((3, 0), dtype=np.int64)


def partition_from_dict(data: Dict, graph: Graph) -> HybridPartition:
    """Rebuild a hybrid partition over ``graph`` from :func:`partition_to_dict`.

    Raises ``ValueError`` when the payload does not match the graph.
    """
    if data.get("version") != FORMAT_VERSION:
        raise ValueError(f"unsupported partition format: {data.get('version')!r}")
    if (
        data["num_vertices"] != graph.num_vertices
        or data["num_edges"] != graph.num_edges
        or data["directed"] != graph.directed
    ):
        raise ValueError("partition payload does not match the supplied graph")
    partition = HybridPartition(graph, int(data["num_fragments"]))
    partition._bulk_load(_payload_events(data, graph))
    for v, fid in data["masters"].items():
        v, fid = int(v), int(fid)
        if fid not in partition._placement.get(v, ()):
            raise ValueError(f"fragment {fid} holds no copy of vertex {v}")
        partition._masters[v] = fid
    return partition


def restore_partition_state(partition: HybridPartition, data: Dict) -> None:
    """Overwrite ``partition``'s contents in place from a serialized dict.

    The inverse of :func:`partition_to_dict` that preserves object
    identity: fragments, placement, full-copy, and master indexes are
    rebuilt from the payload while registered listeners stay attached
    (every restored vertex, and every vertex placed before the restore,
    is notified once, so incremental cost trackers reprice lazily).  This
    is how the refinement guard restores its best-so-far snapshot
    (:mod:`repro.integrity.guard`).
    """
    if int(data["num_fragments"]) != partition.num_fragments:
        raise ValueError(
            "snapshot has "
            f"{data['num_fragments']} fragments, partition has "
            f"{partition.num_fragments}"
        )
    events = _payload_events(data, partition.graph)
    # Vertices placed before the restore must be re-priced even if the
    # snapshot no longer places them (a snapshot of a valid partition
    # always does; one taken mid-construction may not).
    stale = set(partition._placement)
    partition.fragments = [
        Fragment(fid, partition.graph.directed)
        for fid in range(partition.num_fragments)
    ]
    partition._bulk_load(events)
    for v, fid in data["masters"].items():
        partition._masters[int(v)] = int(fid)
    partition._notify_all(stale.union(partition._placement))


def save_partition(partition: HybridPartition, path: PathLike) -> None:
    """Write a hybrid partition to ``path`` as JSON."""
    with open(path, "w", encoding="ascii") as handle:
        json.dump(partition_to_dict(partition), handle)


def load_partition(path: PathLike, graph: Graph) -> HybridPartition:
    """Read a hybrid partition written by :func:`save_partition`."""
    with open(path, "r", encoding="ascii") as handle:
        return partition_from_dict(json.load(handle), graph)


def save_composite(composite: CompositePartition, path: PathLike) -> None:
    """Write a composite partition (all per-algorithm views) as JSON."""
    payload = {
        "version": FORMAT_VERSION,
        "names": composite.names,
        "partitions": {
            name: partition_to_dict(composite.partition_for(name))
            for name in composite.names
        },
    }
    with open(path, "w", encoding="ascii") as handle:
        json.dump(payload, handle)


def load_composite(path: PathLike, graph: Graph) -> CompositePartition:
    """Read a composite partition written by :func:`save_composite`."""
    with open(path, "r", encoding="ascii") as handle:
        payload = json.load(handle)
    if payload.get("version") != FORMAT_VERSION:
        raise ValueError(f"unsupported composite format: {payload.get('version')!r}")
    partitions = {
        name: partition_from_dict(payload["partitions"][name], graph)
        for name in payload["names"]
    }
    return CompositePartition(partitions)
