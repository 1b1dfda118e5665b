"""Procedure GetDest: greedy minimum-set-cover destinations (Fig. 7).

When a candidate ``(v, E^v_i)`` must leave fragment ``i`` for several
algorithms at once, each copy placed costs storage — so the composite
partitioners pick destination fragments covering as many algorithms as
possible per copy.  Finding the minimum number of destinations is the
Minimum Set Cover problem (NP-complete, Section 6.2), so the paper uses
the classic greedy ln(n)-approximation [17]: repeatedly take the fragment
serving the most still-uncovered algorithms.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Set


def get_dest(
    algorithms: Iterable[str],
    underloaded: Dict[str, Set[int]],
    fits: Optional[Callable[[str, int], bool]] = None,
) -> Dict[str, int]:
    """Map each algorithm needing a move to a destination fragment.

    Parameters
    ----------
    algorithms:
        ``O_v`` — the algorithms whose partition must relocate the
        candidate.
    underloaded:
        ``U^j`` per algorithm — fragment ids that may accept it.
    fits:
        Optional extra feasibility predicate ``(algorithm, fragment) →
        bool`` (budget check with the candidate's actual price).

    Returns a partial mapping in the order of ``algorithms``:
    algorithms with no feasible fragment are simply absent (the caller
    decides where they go).
    """
    order = list(algorithms)
    destinations: Dict[str, int] = {}
    feasible: Dict[str, Set[int]] = {}
    for alg in order:
        frags = underloaded.get(alg, set())
        if fits is not None:
            frags = {fid for fid in frags if fits(alg, fid)}
        feasible[alg] = set(frags)

    uncovered = order
    while uncovered:
        cover: Dict[int, List[str]] = {}
        for alg in uncovered:
            for fid in feasible[alg]:
                cover.setdefault(fid, []).append(alg)
        if not cover:
            break
        best_fid = max(cover, key=lambda fid: (len(cover[fid]), -fid))
        for alg in cover[best_fid]:
            destinations[alg] = best_fid
        uncovered = [alg for alg in uncovered if alg not in destinations]
    return {alg: destinations[alg] for alg in order if alg in destinations}
