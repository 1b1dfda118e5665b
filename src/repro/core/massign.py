"""Phase MAssign: one-pass master (re)assignment (Section 5.1, Eq. 5).

All border nodes start unassigned with fresh per-fragment communication
accumulators; processing them one pass in vertex order, each vertex's
master goes to the hosting fragment minimizing

    C_h(F_j) + C_g(F_j) + g_A^j(v)            (Eq. 5)

— current computation load, communication already assigned this pass,
plus the communication the vertex itself would incur there.  MAssign
never moves edges, so it cannot worsen the computational balance the
earlier phases achieved.  The Eq. 5 terms come from the session's
tracker (:meth:`~repro.core.tracker.CostTracker.host_scores`).

Eq. 5 scores in *time* units, each term divided by its host's capacity:

    C_h(F_j)/s_j + C_g(F_j)/b_j + g_A^j(v)/b_j + Δh_j(v)/s_j

with compute speed ``s_j`` and NIC bandwidth ``b_j``, steering masters
on a heterogeneous cluster toward workers that can actually absorb the
synchronization traffic.  On a homogeneous cluster every capacity is
1.0 and the score is the plain left-to-right sum of Eq. 5, bit for bit.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterable, List, Optional, Tuple

from repro.core.tracker import CostTracker

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.integrity.guard import RefinementGuard


def eq5_pass(
    tracker: CostTracker,
    vertices: Iterable[int],
    residual: bool,
) -> Callable[[int], Tuple[List[int], Optional[int], Optional[int]]]:
    """One Eq. 5 pass's accumulators; returns ``assign(v)``.

    ``assign(v)`` masters ``v`` at its Eq. 5 argmin host and returns
    ``(hosts, current, best)`` — ``v``'s hosts ascending and its master
    before and after (both ``None`` when ``v`` is not a border vertex).
    Computation accumulators start from the fragments' current C_h and
    follow each master move; communication accumulators start at zero,
    or with ``residual`` from the current C_g less the standing
    contribution of each of ``vertices``, subtracted in their order.
    """
    partition = tracker.partition
    host_scores = tracker.host_scores
    comp = tracker.comp_costs()
    comm = [0.0] * partition.num_fragments
    if residual:
        comm = tracker.comm_costs()
        for v in vertices:
            standing = tracker.comm_contribution(v)
            if standing is not None:
                comm[standing[0]] -= standing[1]
    caps = tracker.capacities
    bws = tracker.bandwidths

    def assign(v: int) -> Tuple[List[int], Optional[int], Optional[int]]:
        hosts = sorted(partition._placement.get(v, ()))
        if len(hosts) < 2:
            return hosts, None, None
        current = partition.master(v)
        best_fid = hosts[0]
        best_score = float("inf")
        best_gain = 0.0
        best_delta = 0.0
        pairs = host_scores(v, hosts)
        for fid, (g_here, h_delta) in zip(hosts, pairs):
            s, b = caps[fid], bws[fid]
            score = comp[fid] / s + comm[fid] / b + g_here / b + h_delta / s
            if score < best_score:
                best_score = score
                best_fid = fid
                best_gain = g_here
                best_delta = h_delta
        if current != best_fid:
            # Master-dependent computation moves with the master; the
            # current host's Δh was scored in the loop above (pre-mutation).
            comp[current] -= pairs[hosts.index(current)][1]
            comp[best_fid] += best_delta
            partition.set_master(v, best_fid)
        comm[best_fid] += best_gain
        return hosts, current, best_fid

    return assign


def massign(
    tracker: CostTracker,
    vertices: Optional[Iterable[int]] = None,
    guard: Optional["RefinementGuard"] = None,
    residual: bool = False,
) -> int:
    """Reassign masters of border vertices by Eq. 5; return moves made.

    ``tracker`` supplies the per-host ``(g, Δh)`` score pairs.  ``vertices``
    restricts the pass (the dirty-region path); default is every border
    vertex in ascending id order.  ``guard`` (the guarded pipeline) is
    stepped once per master move.

    ``residual`` (the dirty-region path, DESIGN §15) starts the
    communication accumulators from the fragments' *current* C_g minus
    the restricted vertices' own contributions, instead of from zero.
    The zeroed start is only correct when every border master is being
    reassigned; a subset pass that ignored the standing communication of
    untouched masters would pile its masters onto fragments that are
    already synchronization-heavy.  On the full vertex set the residual
    base degenerates to all zeros, so both modes agree there.
    """
    if vertices is None:
        vertices = sorted(
            v
            for v, hosts in tracker.partition.vertex_fragments()
            if len(hosts) > 1
        )
    vertices = list(vertices)
    assign = eq5_pass(tracker, vertices, residual)
    moves = 0
    for v in vertices:
        _hosts, current, best = assign(v)
        if current != best:
            moves += 1
            if guard is not None:
                guard.step()
    return moves
