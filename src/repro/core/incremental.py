"""Incremental partition maintenance under graph updates (DESIGN §15).

The paper's conclusion names this as future work: "develop incremental
algorithms that maintain application-driven partitions in response to
updates to graphs".  The maintenance route is **in place**: a
:class:`MutationBatch` of streamed updates is applied through the
graph's own mutation hooks and the partitions' coherence primitives by
:func:`apply_mutations` — surviving edges keep their placement, deleted
edges vanish everywhere (coherence, Section 6.1), each inserted edge
lands in the cheapest coherent home — which returns the dirty vertex
set.  Feeding that set to a refiner's ``refine_incremental`` and
re-planning with ``plan_for(partition, incremental=True)`` maintains
the deployment without ever rebuilding graph, partition, or plan from
scratch.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import List, Optional, Sequence, Set, Tuple, Union

from repro.graph.digraph import Edge, Graph
from repro.partition.composite import CompositePartition
from repro.partition.hybrid import HybridPartition

#: Mutation opcodes: ``+`` add-edge, ``-`` remove-edge, ``v`` ensure-vertex.
MutationOp = Tuple[str, int, int]


@dataclass(frozen=True)
class MutationBatch:
    """An ordered batch of streamed graph mutations.

    The text format is line oriented; blank lines and ``#`` comments are
    ignored:

    * ``+ u v`` — insert edge ``(u, v)``; a no-op if already present.
      Unseen endpoint ids grow the vertex set (an insert implies its
      endpoints).
    * ``- u v`` — delete edge ``(u, v)``; a no-op if absent or if an
      endpoint is unknown.
    * ``v``     — ensure vertex ``v`` exists, appending isolated
      vertices until the graph covers id ``v``.

    Batches are applied **in order** by :func:`apply_mutations`.
    """

    ops: Tuple[MutationOp, ...]

    def __len__(self) -> int:
        return len(self.ops)

    @classmethod
    def parse(cls, text: str, source: str = "<string>") -> "MutationBatch":
        """Parse the text format; raises :class:`ValueError` on bad lines."""
        ops: List[MutationOp] = []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            tokens = line.split()
            if tokens[0] in ("+", "-"):
                if len(tokens) != 3:
                    raise ValueError(
                        f"{source}, line {lineno}: expected "
                        f"'{tokens[0]} u v', got {raw.strip()!r}"
                    )
                try:
                    u, v = int(tokens[1]), int(tokens[2])
                except ValueError:
                    raise ValueError(
                        f"{source}, line {lineno}: non-integer endpoint "
                        f"in {raw.strip()!r}"
                    ) from None
                if u < 0 or v < 0:
                    raise ValueError(
                        f"{source}, line {lineno}: negative vertex id "
                        f"in {raw.strip()!r}"
                    )
                ops.append((tokens[0], u, v))
            elif len(tokens) == 1:
                try:
                    v = int(tokens[0])
                except ValueError:
                    raise ValueError(
                        f"{source}, line {lineno}: expected '+ u v', "
                        f"'- u v' or a bare vertex id, got {raw.strip()!r}"
                    ) from None
                if v < 0:
                    raise ValueError(
                        f"{source}, line {lineno}: negative vertex id "
                        f"in {raw.strip()!r}"
                    )
                ops.append(("v", v, -1))
            else:
                raise ValueError(
                    f"{source}, line {lineno}: expected '+ u v', "
                    f"'- u v' or a bare vertex id, got {raw.strip()!r}"
                )
        return cls(ops=tuple(ops))

    @classmethod
    def from_file(cls, path: str) -> "MutationBatch":
        """Parse a mutation file (same errors as :meth:`parse`)."""
        with open(path, "r", encoding="utf-8") as handle:
            return cls.parse(handle.read(), source=path)

    def to_text(self) -> str:
        """Canonical text serialization (round-trips through parse)."""
        lines: List[str] = []
        for op, u, v in self.ops:
            if op == "v":
                lines.append(str(u))
            else:
                lines.append(f"{op} {u} {v}")
        return "\n".join(lines) + ("\n" if lines else "")

    def digest(self) -> str:
        """SHA-256 of the canonical text — keys incremental eval cells."""
        return hashlib.sha256(self.to_text().encode("ascii")).hexdigest()

    def apply_to_graph(self, graph: Graph) -> Set[int]:
        """Replay only the graph-level mutations; return touched vertices.

        Used when a cached incremental cell is loaded: the maintained
        partition deserializes against the *updated* graph, which this
        rebuilds from the base graph without any partition in hand.
        """
        touched: Set[int] = set()
        for op, u, v in self.ops:
            if op == "v":
                while graph.num_vertices <= u:
                    touched.add(graph.add_vertex())
            elif op == "+":
                # An insert implies its endpoints: unseen ids grow the
                # graph (ids are dense, so covering max covers both).
                while graph.num_vertices <= max(u, v):
                    touched.add(graph.add_vertex())
                if graph.add_edge(u, v):
                    touched.update((u, v))
            else:
                # A delete naming an unknown vertex is a no-op: the
                # edge cannot exist.
                if max(u, v) < graph.num_vertices and graph.remove_edge(u, v):
                    touched.update((u, v))
        return touched


def _route_new_edge(partition: HybridPartition, edge: Edge) -> int:
    """Fragment where an inserted edge lands (cheapest coherent home).

    Preference order: a fragment already holding **both** endpoints
    (no new copies), then one holding either endpoint (one new copy),
    then the smallest fragment.  Ties break on the lowest fragment id
    so replay is deterministic.
    """
    hosts_u = partition.placement(edge[0])
    hosts_v = partition.placement(edge[1])
    common = hosts_u & hosts_v
    if common:
        return min(common)
    if hosts_u:
        return min(hosts_u)
    if hosts_v:
        return min(hosts_v)
    return min(
        range(partition.num_fragments),
        key=lambda fid: (partition.fragments[fid].num_vertices, fid),
    )


MutationTarget = Union[
    HybridPartition, CompositePartition, Sequence[HybridPartition]
]


def apply_mutations(target: MutationTarget, batch: MutationBatch) -> Set[int]:
    """Apply ``batch`` in place to ``target``; return the dirty vertices.

    ``target`` may be a single :class:`HybridPartition`, a
    :class:`CompositePartition`, or any sequence of hybrid partitions
    sharing one graph (the composite/mixed-workload case).  The shared
    graph is mutated **once** per operation through its streaming hooks;
    each partition is then fixed up through its coherence primitives
    (``graph_changed`` / ``add_edge_to`` / ``remove_edge_from``), so
    mutation journals and plan caches see every touched vertex.

    The returned set is exactly what ``refine_incremental`` and
    ``plan_for(..., incremental=True)`` need to bring the deployment
    back up to date.
    """
    composite: Optional[CompositePartition] = None
    if isinstance(target, HybridPartition):
        partitions: List[HybridPartition] = [target]
    elif isinstance(target, CompositePartition):
        composite = target
        partitions = [target.partitions[name] for name in target.names]
    else:
        partitions = list(target)
    if not partitions:
        raise ValueError("apply_mutations needs at least one partition")
    graph = partitions[0].graph
    for partition in partitions:
        if partition.graph is not graph:
            raise ValueError("all partitions must share one graph object")

    # Structural fixes are applied per operation (routing depends on the
    # evolving placements), but the cache re-sync — graph_changed, whose
    # degree reads fold the graph's pending log — runs once per partition
    # at the end: fullness and incident counts are derived state, so
    # healing the final graph is equivalent to healing after every step.
    dirty: Set[int] = set()

    def ensure_vertex(vid: int) -> None:
        """Grow the graph (and every partition) to cover vertex ``vid``."""
        while graph.num_vertices <= vid:
            new_v = graph.add_vertex()
            for partition in partitions:
                fid = min(
                    range(partition.num_fragments),
                    key=lambda f: (partition.fragments[f].num_vertices, f),
                )
                partition.add_vertex_to(fid, new_v)
            dirty.add(new_v)

    for op, u, v in batch.ops:
        if op == "v":
            ensure_vertex(u)
        elif op == "+":
            # An insert implies its endpoints: unseen ids grow the
            # graph (ids are dense, so covering max covers both).
            ensure_vertex(max(u, v))
            if not graph.add_edge(u, v):
                continue  # already present; nothing changed anywhere
            edge = graph.canonical_edge(u, v)
            for partition in partitions:
                partition.add_edge_to(_route_new_edge(partition, edge), edge)
            dirty.update(edge)
        else:  # op == "-"
            if max(u, v) >= graph.num_vertices:
                continue  # unknown endpoint: the edge cannot exist
            edge = graph.canonical_edge(u, v)
            if not graph.remove_edge(u, v):
                continue  # absent; nothing changed anywhere
            for partition in partitions:
                holders = [
                    fid
                    for fid in sorted(partition.placement(edge[0]) & partition.placement(edge[1]))
                    if partition.fragments[fid].has_edge(edge)
                ]
                for fid in holders:
                    partition.remove_edge_from(fid, edge)
            dirty.update(edge)

    for partition in partitions:
        partition.graph_changed(dirty)
    if composite is not None:
        composite.rebuild_index()
    return dirty
