"""Procedure GetCandidates (Fig. 3, lines 17-22).

Given an overloaded fragment and the budget ``B``, GetCandidates keeps a
*coherent* sub-fragment within budget — it walks the fragment's local
structure in BFS order and greedily retains vertices whose cumulative
cost fits — and returns the remaining cost-bearing nodes, with their
local incident edges, as migration candidates.  The BFS order is what
preserves locality: the kept sub-fragment is a union of connected
regions, not a random vertex subset (ablated in
``benchmarks/bench_ablations.py``).
"""

from __future__ import annotations

from collections import deque
from typing import Collection, List, Optional, Tuple

from repro.core.tracker import CostTracker
from repro.partition.fragment import Edge
from repro.partition.hybrid import NodeRole, copy_role

Candidate = Tuple[int, Tuple[Edge, ...]]


def bfs_order(partition, fid: int) -> List[int]:
    """BFS traversal order of fragment ``fid``'s local subgraph."""
    incident = partition.fragments[fid]._incident
    order: List[int] = []
    visited = set()
    # Sorted seeds and sorted edge expansion: the fragment's vertex index
    # is insertion-ordered and its edge buckets are sets, both of which
    # vary across Python builds/histories.  Ties break by vertex id so
    # the traversal (and every refinement decision downstream) is
    # reproducible.
    for seed in sorted(incident):
        if seed in visited:
            continue
        queue = deque([seed])
        visited.add(seed)
        while queue:
            v = queue.popleft()
            order.append(v)
            for edge in sorted(incident[v]):
                u = edge[0] if edge[1] == v else edge[1]
                if u not in visited:
                    visited.add(u)
                    queue.append(u)
    return order


def get_candidates(
    tracker: CostTracker,
    fid: int,
    budget: float,
    role: NodeRole = NodeRole.ECUT,
    order: List[int] = None,
    only: Optional[Collection[int]] = None,
) -> List[Candidate]:
    """Select migration candidates from fragment ``fid``.

    ``role`` filters which copies are candidate units: e-cut nodes for
    E2H (EMigrate moves whole vertices), v-cut nodes for V2H.  ``order``
    overrides the BFS traversal (used by the random-order ablation).
    ``only`` is a dirty scope's frontier (DESIGN §15): the keep rule still
    runs over the whole fragment, but units outside it are never built.

    Returns ``(v, local incident edges)`` pairs, in traversal order.
    """
    partition = tracker.partition
    incident = partition.fragments[fid]._incident
    if order is None:
        order = bfs_order(partition, fid)
    tracker.ensure_current()
    contributions, facts = tracker._copy_contrib, partition._graph_facts
    kept_cost = 0.0
    candidates: List[Candidate] = []
    for v in order:
        bucket = incident[v]
        home = partition._home(v, (facts.get(v) or partition._facts(v))[0])
        if copy_role(home, fid, len(bucket)) is not role:
            continue
        contribution = (contributions.get(v) or {}).get(fid, 0.0)
        if kept_cost + contribution <= budget:
            kept_cost += contribution
        elif only is None or v in only:
            candidates.append((v, tuple(sorted(bucket))))
    return candidates
