"""Structural invariants of hybrid partitions.

These checks encode the definition of HP(n) from Section 2 and the
edge-cut / vertex-cut special cases.  They are exercised directly in unit
tests and as properties in the hypothesis test-suite: every partitioner
and every refiner must leave the partition in a state where
:func:`check_partition` passes.

Two entry points share one implementation:

* :func:`collect_violations` walks the partition and returns a
  structured, non-raising report of every violation;
* :func:`check_partition` raises :class:`PartitionInvariantError` on the
  first violation — the fail-fast API the tests and the refinement
  guard's post-pass check use.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.partition.hybrid import HybridPartition, NodeRole

Edge = Tuple[int, int]


class PartitionInvariantError(AssertionError):
    """Raised when a hybrid partition violates a structural invariant."""


@dataclass(frozen=True)
class Violation:
    """One invariant violation, reported instead of raised.

    Attributes
    ----------
    kind:
        Machine-readable category: ``placement-index`` (fragment holds a
        vertex the index does not know about), ``placement-ghost`` (the
        index lists a fragment without a copy), ``edge-graph`` (fragment
        edge absent from G), ``endpoint`` (fragment edge without both
        endpoints), ``vertex-coverage`` / ``edge-coverage`` (V = ∪V_i /
        E = ∪E_i broken), ``master`` (master not a hosting fragment),
        ``role`` (e-cut/v-cut copy classification broken), or
        ``full-index`` (cached full-copy index disagrees with fragment
        contents — the internal basis of the role tags).
    fid / vertex / edge:
        The fragment, vertex, and edge involved, where applicable.
    message:
        Human-readable description (what :func:`check_partition` raises).
    """

    kind: str
    message: str
    fid: Optional[int] = None
    vertex: Optional[int] = None
    edge: Optional[Edge] = None


def _vertex_index_violations(partition: HybridPartition, v: int) -> List[Violation]:
    """Master / role / full-index checks for one vertex.

    Never raises on inconsistent indexes: a placement entry pointing at
    a fragment without a copy becomes a ``placement-ghost`` violation
    rather than a KeyError.
    """
    out: List[Violation] = []
    hosts = partition.placement(v)
    actual = frozenset(
        fragment.fid
        for fragment in partition.fragments
        if fragment.has_vertex(v)
    )
    for fid in sorted(hosts - actual):
        out.append(
            Violation(
                "placement-ghost",
                f"placement index lists fragment {fid} without a copy of vertex {v}",
                fid=fid,
                vertex=v,
            )
        )
    try:
        master: Optional[int] = partition.master(v)
    except KeyError:
        master = None
    if master not in hosts:
        out.append(
            Violation(
                "master",
                f"master of vertex {v} is fragment {master}, not a host",
                fid=master,
                vertex=v,
            )
        )
    checkable = sorted(hosts & actual)
    roles = [partition.role(v, fid) for fid in checkable]
    ecut_copies = roles.count(NodeRole.ECUT)
    if partition.is_ecut_vertex(v):
        if ecut_copies != 1:
            out.append(
                Violation(
                    "role",
                    f"e-cut vertex {v} has {ecut_copies} e-cut copies",
                    vertex=v,
                )
            )
    else:
        if ecut_copies != 0:
            out.append(
                Violation(
                    "role",
                    f"v-cut vertex {v} has an e-cut copy",
                    vertex=v,
                )
            )
        for fid, role in zip(checkable, roles):
            count = partition.fragments[fid].incident_count(v)
            if count > 0 and role is not NodeRole.VCUT:
                out.append(
                    Violation(
                        "role",
                        f"non-empty copy of v-cut vertex {v} at {fid} is {role}",
                        fid=fid,
                        vertex=v,
                    )
                )
    total = partition.global_incident_count(v)
    if total == 0:
        expected = actual
    else:
        expected = frozenset(
            fid
            for fid in actual
            if partition.fragments[fid].incident_count(v) == total
        )
    if partition.full_fragments(v) != expected:
        out.append(
            Violation(
                "full-index",
                f"full-copy index of vertex {v} is "
                f"{sorted(partition.full_fragments(v))}, expected {sorted(expected)}",
                vertex=v,
            )
        )
    return out


def _fragment_violations(
    partition: HybridPartition, fragment
) -> List[Violation]:
    """Placement-index agreement and edge sanity for one fragment, in
    ascending vertex and edge order."""
    graph = partition.graph
    out: List[Violation] = []
    for v in sorted(fragment.vertices()):
        hosts = partition.placement(v)
        if fragment.fid not in hosts:
            out.append(
                Violation(
                    "placement-index",
                    f"placement index missing fragment {fragment.fid} for vertex {v}",
                    fid=fragment.fid,
                    vertex=v,
                )
            )
    for edge in sorted(fragment.edges()):
        u, v = edge
        if not graph.has_edge(u, v):
            out.append(
                Violation(
                    "edge-graph",
                    f"edge {edge} not in graph",
                    fid=fragment.fid,
                    edge=edge,
                )
            )
        if not fragment.has_vertex(u) or not fragment.has_vertex(v):
            out.append(
                Violation(
                    "endpoint",
                    f"fragment {fragment.fid} holds edge {edge} without endpoints",
                    fid=fragment.fid,
                    edge=edge,
                )
            )
    return out


def collect_violations(partition: HybridPartition) -> List[Violation]:
    """Collect every invariant violation without raising.

    Invariants checked (Section 2):

    1. vertex coverage: ``V = ∪ V_i``;
    2. edge coverage: ``E = ∪ E_i`` and every local edge exists in G;
    3. endpoint presence: a fragment holding an edge holds both endpoints;
    4. placement index agrees with fragment contents (both directions);
    5. master mapping points at a hosting fragment for every placed vertex;
    6. role consistency: an e-cut vertex has exactly one ECUT copy; a
       v-cut vertex has no ECUT copy and at least two VCUT copies is not
       required (one partial copy can coexist with pruned remainder), but
       every non-empty copy of a v-cut vertex must be VCUT;
    7. the cached full-copy index (which role tags derive from) agrees
       with fragment contents.
    """
    graph = partition.graph
    violations: List[Violation] = []
    seen_vertices = set()
    seen_edges = set()
    for fragment in partition.fragments:
        violations.extend(_fragment_violations(partition, fragment))
        seen_vertices.update(fragment.vertices())
        seen_edges.update(fragment.edges())

    missing_vertices = set(graph.vertices) - seen_vertices
    if missing_vertices:
        message = (
            f"vertices not covered by any fragment: {sorted(missing_vertices)[:5]}..."
            if len(missing_vertices) > 5
            else f"vertices not covered by any fragment: {sorted(missing_vertices)}"
        )
        violations.append(Violation("vertex-coverage", message))
    missing_edges = set(graph.edges()) - seen_edges
    if missing_edges:
        sample = sorted(missing_edges)[:5]
        violations.append(
            Violation(
                "edge-coverage",
                f"edges not covered by any fragment: {sample}",
                edge=sample[0],
            )
        )
    for v, _hosts in partition.vertex_fragments():
        violations.extend(_vertex_index_violations(partition, v))
    return violations


def check_partition(partition: HybridPartition) -> None:
    """Validate all structural invariants; raise on the first violation.

    Thin raising wrapper over :func:`collect_violations`; the exception
    message is the first violation's message, matching the historical
    fail-fast behaviour.
    """
    violations = collect_violations(partition)
    if violations:
        raise PartitionInvariantError(violations[0].message)


def is_edge_cut(partition: HybridPartition) -> bool:
    """Whether HP(n) is an edge-cut partition (Section 2, special case 1).

    Requires every vertex to be e-cut and the e-cut node sets of the
    fragments to be pairwise disjoint (the latter holds automatically
    because each e-cut vertex has exactly one designated e-cut copy, so we
    check that every vertex is e-cut).
    """
    return all(partition.is_ecut_vertex(v) for v, _ in partition.vertex_fragments())


def is_vertex_cut(partition: HybridPartition) -> bool:
    """Whether HP(n) is a vertex-cut partition (disjoint edge sets)."""
    total = partition.total_edge_copies()
    distinct = len({e for f in partition.fragments for e in f.edges()})
    return total == distinct


def fragment_role_counts(partition: HybridPartition) -> List[dict]:
    """Per-fragment counts of e-cut / v-cut / dummy copies (diagnostics)."""
    out = []
    for fragment in partition.fragments:
        counts = {NodeRole.ECUT: 0, NodeRole.VCUT: 0, NodeRole.DUMMY: 0}
        for v in fragment.vertices():
            counts[partition.role(v, fragment.fid)] += 1
        out.append({role.value: count for role, count in counts.items()})
    return out
