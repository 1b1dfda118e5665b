"""Exp-3: efficiency of ParE2H / ParV2H (Fig. 9(k)).

Measures the time the refiners add on top of the baseline partitioner —
the paper reports ParE2H at 11.5% and ParV2H at 11.1% of total
partitioning time on average, shrinking as n grows (fewer adjustments
needed per fragment at larger n... more precisely: with smaller n more
adjustment operations are needed, finding (2) of Exp-3).

Times here are wall-clock seconds of the local simulation — both the
baseline partitioner and the refiner run in the same process, so their
ratio is meaningful even though absolute values are not comparable to the
paper's cluster.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.eval.harness import BASELINES, reading


def figure9k_cells(
    source,
    dataset: str = "twitter_like",
    algorithm: str = "tc",
    fragment_counts: Sequence[int] = (2, 4, 8),
    baselines: Sequence[str] = ("xtrapulp", "fennel", "grid", "ne"),
) -> Dict[str, List[Tuple[int, float, float, float]]]:
    """Per baseline: ``[(n, partition s, refine s, refine share)]``."""
    out: Dict[str, List[Tuple[int, float, float, float]]] = {}
    for baseline in baselines:
        cut_type, label = BASELINES[baseline]
        points = []
        for n in fragment_counts:
            initial = source.partition(dataset, baseline, n)
            refined = source.refine(dataset, baseline, n, algorithm, cut_type)
            points.append(source.derive(refine_share, n, initial, refined))
        out[label or baseline] = points
    return out


def refine_share(n: int, initial, refined) -> Tuple[int, float, float, float]:
    """One Fig. 9(k) point: ``(n, partition s, refine s, refine share)``."""
    _partition, partition_s = initial
    refine_s = refined[1].wall_seconds
    total = partition_s + refine_s
    return n, partition_s, refine_s, refine_s / total


figure9k = reading(figure9k_cells)


def rows(data: Dict[str, List[Tuple[int, float, float, float]]]) -> List[List]:
    """Flatten the Fig. 9(k) series into printable rows."""
    flattened: List[List] = []
    for label, points in data.items():
        for n, part_s, refine_s, share in points:
            flattened.append(
                [label, n, round(part_s, 3), round(refine_s, 3), f"{share:.1%}"]
            )
    return flattened


HEADERS = ["partitioner", "n", "baseline (s)", "refine (s)", "refine share"]
