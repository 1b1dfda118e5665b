"""Metric variables X of the cost model (Section 3.1, Eq. 4).

For a copy of vertex ``v`` in fragment ``F_i`` of a hybrid partition the
feature vector contains:

========  ===========================================================
name      meaning
========  ===========================================================
d_in_L    ``d⁺_L(v)`` — in-degree of the copy within F_i
d_out_L   ``d⁻_L(v)`` — out-degree of the copy within F_i
d_in_G    ``d⁺_G(v)`` — in-degree of v in the whole graph
d_out_G   ``d⁻_G(v)`` — out-degree of v in the whole graph
r         number of mirror copies of v across fragments
D         average degree of the graph (constant metric)
I         e-cut indicator: 0 if this copy is the e-cut node, else 1
d_L       local incident-edge count (undirected degree convenience)
d_G       global incident-edge count (undirected degree convenience)
M         master indicator: 1 if this copy is the vertex's master
========  ===========================================================

``d_L`` / ``d_G`` are the paper's ``d_L(v)`` / ``d_G(v)`` used in the TC
cost functions for undirected graphs; ``I`` is the indicator of g_TC
(Example 6).  ``M`` is an extension in the spirit of the paper's remark
that X may be extended per algorithm: CN/TC masters of split vertices do
the cross-copy merge work, which no degree variable can express.  The
constant 1 needed by polynomial intercepts is handled by the monomial
representation, not by a feature.

The refiners never build this mapping per copy: :func:`copy_keys` (all
copies of a vertex) and :func:`priced_copies` (those Eqs. 2-3 charge) emit a
copy's variables as a tuple in :data:`FEATURE_NAMES` order — the *key* the
cost model's ``h_key`` / ``g_key`` funnel prices and the value memo is keyed
on (DESIGN §8.2).  :func:`vertex_features` is that key zipped with the names.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.graph.metrics import average_degree
from repro.partition.hybrid import HybridPartition, NodeRole, copy_role

FEATURE_NAMES = (
    "d_in_L",
    "d_out_L",
    "d_in_G",
    "d_out_G",
    "r",
    "D",
    "I",
    "d_L",
    "d_G",
    "M",
)

Features = Dict[str, float]

#: One copy's metric variables in :data:`FEATURE_NAMES` order.  Only this
#: module knows the layout.
FeatureKey = Tuple[float, ...]


def copy_keys(
    partition: HybridPartition,
    v: int,
    avg_degree: float,
    hosts: Optional[Iterable[int]] = None,
    priced_only: bool = False,
) -> List[Tuple[int, bool, FeatureKey]]:
    """``(fid, cost_bearing, key)`` for every real copy of ``v``, in one
    pass, fids ascending.

    What all copies of ``v`` share — global degrees, mirror count, master,
    designated home — is read once; each copy adds three fragment-local
    integers.  ``hosts`` defaults to the placement index's entry; a host
    whose fragment holds no copy is skipped (what makes :func:`copy_key`
    raise ``KeyError`` for it).  ``priced_only`` keeps just the copies
    Eqs. 2-3 charge, the cost-bearing ones and the master's: one or two
    for an e-cut vertex, however replicated.  Copies without a master
    raise ``KeyError``.
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
    for fid in sorted(hosts):
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


def priced_copies(
    partition: HybridPartition, v: int, avg_degree: float
) -> Tuple[Sequence[Tuple[int, FeatureKey]], Optional[int], Optional[FeatureKey]]:
    """What Eqs. 2-3 charge for ``v``: ``(bearing, master, g_key)``.

    ``bearing`` holds ``(fid, key)`` per cost-bearing copy (``h`` is charged
    at each ``fid``); ``g_key`` is the master copy's key when ``v`` is
    replicated and that copy exists (``g`` is charged at ``master``), else
    ``None``.  An e-cut vertex is read straight off the indexes; a v-cut
    vertex takes the :func:`copy_keys` pass.
    """
    hosts = partition._placement.get(v)
    if not hosts:
        return (), None, None
    master = partition._masters[v]
    total, d_in_g, d_out_g = partition._graph_facts.get(v) or partition._facts(v)
    home = partition._home(v, total)
    fragments = partition.fragments
    if home is not None:
        fragment = fragments[home]
        bucket = fragment._incident[v]
        there = fragments[master]
        d_in_g, d_out_g, d_g = float(d_in_g), float(d_out_g), float(total)
        mirrors, avg_degree = float(len(hosts) - 1), float(avg_degree)
        key = (
            float(fragment._in_deg.get(v, 0)), float(fragment._out_deg.get(v, 0)),
            d_in_g, d_out_g, mirrors, avg_degree,
            0.0, float(len(bucket)), d_g, 1.0 if master == home else 0.0,
        )
        if master == home:
            return ((home, key),), master, key if mirrors else None
        return ((home, key),), master, (
            float(there._in_deg.get(v, 0)), float(there._out_deg.get(v, 0)),
            d_in_g, d_out_g, mirrors, avg_degree,
            1.0, float(len(there._incident[v])), d_g, 1.0,
        )
    copies = copy_keys(partition, v, avg_degree, priced_only=True)
    g_key = None
    if len(hosts) > 1:
        g_key = next(key for fid, _bearing, key in copies if fid == master)
    return [(fid, key) for fid, bearing, key in copies if bearing], master, g_key


def copy_key(
    partition: HybridPartition, v: int, fid: int, avg_degree: Optional[float] = None
) -> Tuple[bool, FeatureKey]:
    """``(cost_bearing, key)`` of the copy of ``v`` at ``fid``; ``KeyError``
    when there is none.  ``avg_degree`` defaults to the graph's.
    """
    if avg_degree is None:
        avg_degree = average_degree(partition.graph)
    for _fid, bearing, key in copy_keys(partition, v, avg_degree, (fid,)):
        return bearing, key
    raise KeyError(f"vertex {v} not in fragment {fid}")


def with_master(key: FeatureKey, is_master: bool) -> FeatureKey:
    """``key`` with the master indicator ``M`` forced on or off."""
    return key[:-1] + (1.0 if is_master else 0.0,)


def hypothetical_key(
    partition: HybridPartition,
    v: int,
    avg_degree: Optional[float],
    d_in_l: int,
    d_out_l: int,
    d_l: int,
    ecut: bool,
    master: bool,
) -> FeatureKey:
    """Key of a copy of ``v`` as a candidate move would leave it.

    The refiners price a move *before* performing it: the caller states the
    copy's local degrees, role and master flag after the move; global
    degrees and the mirror count are whatever the partition records now.
    """
    if avg_degree is None:
        avg_degree = average_degree(partition.graph)
    total, d_in_g, d_out_g = partition._facts(v)
    return (
        float(d_in_l), float(d_out_l), float(d_in_g), float(d_out_g),
        float(partition.mirrors(v)), float(avg_degree),
        0.0 if ecut else 1.0, float(d_l), float(total), 1.0 if master else 0.0,
    )


def ecut_key(
    partition: HybridPartition, v: int, avg_degree: Optional[float] = None
) -> FeatureKey:
    """Key ``v`` would have as a freshly migrated e-cut node: all of ``E_v``
    local, so local degrees equal global ones, and the master moved along."""
    total, d_in_g, d_out_g = partition._facts(v)
    return hypothetical_key(
        partition, v, avg_degree, d_in_g, d_out_g, total, ecut=True, master=True
    )


def vertex_features(
    partition: HybridPartition,
    v: int,
    fid: int,
    avg_degree: Optional[float] = None,
) -> Features:
    """Extract the metric variables of ``v``'s copy in fragment ``fid``.

    ``avg_degree`` may be passed to avoid recomputing the constant ``D``
    in tight loops; it defaults to the graph's average degree.
    """
    return dict(zip(FEATURE_NAMES, copy_key(partition, v, fid, avg_degree)[1]))


def hypothetical_ecut_features(
    partition: HybridPartition, v: int, avg_degree: Optional[float] = None
) -> Features:
    """:func:`ecut_key` as a feature mapping."""
    return dict(zip(FEATURE_NAMES, ecut_key(partition, v, avg_degree)))
