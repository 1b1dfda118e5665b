"""Budget estimation and fragment classification (Fig. 3 / Fig. 4, line 1).

The refiners estimate a computational budget ``B`` — the average C_h over
fragments — and classify each fragment as *overloaded* (C_h > B) or
*underloaded* (C_h ≤ B).  A small slack keeps the greedy phases from
thrashing on fragments sitting exactly at the average.

The budget is a *per-unit-capacity* target,
``B = slack · Σ_i C_h(F_i) / Σ_i speed_i``, and fragments are classified
by their normalized load ``C_h(F_i)/speed_i`` — so on a heterogeneous
cluster the balance target is each worker's capacity share, not an equal
split.  On a homogeneous cluster every speed is 1.0, ``Σ_i speed_i`` is
exactly ``n``, and both reduce to the average and the raw C_h.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.core.tracker import CostTracker


def compute_budget(tracker: CostTracker, slack: float = 1.0) -> float:
    """``B = slack · Σ_i C_h(F_i) / Σ_i speed_i`` in normalized-load units
    (Fig. 3 line 1, ``Σ_i C_h(F_i) / n`` with slack = 1, on a homogeneous
    cluster)."""
    return slack * sum(tracker.comp_costs()) / sum(tracker.capacities)


def classify_fragments(
    tracker: CostTracker, budget: float
) -> Tuple[List[int], List[int]]:
    """Split fragment ids into ``(overloaded, underloaded)`` w.r.t. load."""
    overloaded: List[int] = []
    underloaded: List[int] = []
    for fid, load in enumerate(tracker.loads()):
        if load > budget:
            overloaded.append(fid)
        else:
            underloaded.append(fid)
    return overloaded, underloaded
