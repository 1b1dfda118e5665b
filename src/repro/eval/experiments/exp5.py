"""Exp-5: scalability of the refiners in |G| (Fig. 9(l)).

Fixes n and grows the synthetic graph from 1× to 5×; reports the
refinement time of ParE2H/ParV2H (and optionally the composite variants)
for the CN cost model.  The paper's shape: near-linear growth, with the
worst-balanced input (Fennel) costing the most to refine because more
edges must move.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.eval.harness import BASELINES, BATCH, reading


def figure9l_cells(
    source,
    algorithm: str = "cn",
    factors: Sequence[int] = (1, 2, 3, 4, 5),
    num_fragments: int = 8,
    baselines: Sequence[str] = ("xtrapulp", "fennel", "grid", "ne"),
    composite: bool = False,
) -> Dict[str, List[Tuple[int, float]]]:
    """Per refined baseline: ``[(scale factor, refine wall seconds)]``.

    With ``composite=True`` the ParME2H/ParMV2H times for the full batch
    are measured instead (the Exp-5 finding (2) series).
    """
    out: Dict[str, List[Tuple[int, float]]] = {}
    for factor in factors:
        dataset = f"scale_{factor}"
        for baseline in baselines:
            cut_type, label = BASELINES[baseline]
            label = label or baseline
            if composite:
                cell = source.composite(
                    dataset, baseline, num_fragments, BATCH, cut_type
                )
                label = "Par M" + label[1:] if label.startswith("H") else label
            else:
                cell = source.refine(
                    dataset, baseline, num_fragments, algorithm, cut_type
                )
            seconds = source.derive(wall_seconds, cell)
            out.setdefault(label, []).append((factor, seconds))
    return out


def wall_seconds(refinement) -> float:
    """Wall-clock seconds of one refinement."""
    return refinement[1].wall_seconds


figure9l = reading(figure9l_cells)


def rows(data: Dict[str, List[Tuple[int, float]]]) -> List[List]:
    """Fig. 9(l) series as one row per graph size."""
    factors = sorted({f for pts in data.values() for f, _s in pts})
    table: List[List] = []
    for factor in factors:
        row: List = [f"{factor}|G|"]
        for label in data:
            lookup = dict(data[label])
            row.append(round(lookup.get(factor, float("nan")), 3))
        table.append(row)
    return table


def headers(data: Dict[str, List[Tuple[int, float]]]) -> List[str]:
    """Column names matching :func:`rows`."""
    return ["size"] + [f"{label} (s)" for label in data]
