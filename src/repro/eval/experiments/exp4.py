"""Exp-4: time and space efficiency of the composite partitioners.

Fig. 10(b): one composite ParMHP run versus five separate ParHP runs
(one per algorithm of the batch) — the paper reports ParMHP 19-111%
faster.  Space: the composite representation saves 51-67% versus storing
five hybrid partitions separately, at 15-58% extra space over the single
initial partition.

Times here are the refiners' **simulated BSP times**: both sides expose
per-phase cluster profiles, and the simulated clock is what every other
timing comparison in this reproduction uses.  (Wall-clock would compare
Python object-assembly overhead instead — the composite refiner builds
all five partitions from scratch, which a storage-sharing deployment
would not physically duplicate.)
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.eval.harness import BASELINES, BATCH, reading


def figure10b_cells(
    source,
    dataset: str = "twitter_like",
    num_fragments: int = 8,
    baselines: Sequence[str] = ("xtrapulp", "fennel", "grid", "ne"),
    batch: Tuple[str, ...] = BATCH,
) -> Dict[str, Dict[str, float]]:
    """Per baseline: separate vs composite partitioning time and space.

    Returns ``{baseline: {parhp_s, parmhp_s, time_saving, initial_ratio,
    separate_ratio, composite_ratio, space_saving, extra_over_initial}}``.
    """
    out: Dict[str, Dict[str, float]] = {}
    for baseline in baselines:
        cut_type, _label = BASELINES[baseline]
        # Five separate application-driven refinements (ParHP).
        parhp_times = [
            source.derive(
                simulated_seconds,
                source.refine(dataset, baseline, num_fragments, algorithm, cut_type),
            )
            for algorithm in batch
        ]
        # One composite refinement (ParMHP).
        composite = source.composite(
            dataset, baseline, num_fragments, batch, cut_type
        )
        # Storage of the single static initial partition, for the
        # "extra space over initial" comparison.
        initial = source.partition(dataset, baseline, num_fragments)
        out[baseline] = source.derive(ratios, parhp_times, composite, initial)
    return out


def simulated_seconds(refinement) -> float:
    """Simulated BSP time of one refinement."""
    return refinement[1].total_time


def ratios(parhp_times: List[float], composite_cell, initial_cell) -> Dict[str, float]:
    """One Fig. 10(b) row: separate vs composite time and space."""
    parhp_seconds = 0.0
    for seconds in parhp_times:
        parhp_seconds += seconds
    composite, profile = composite_cell
    initial, _seconds = initial_cell
    graph = initial.graph
    initial_ratio = (
        initial.total_vertex_copies() + initial.total_edge_copies()
    ) / (graph.num_vertices + graph.num_edges)

    separate = composite.separate_storage_ratio()
    comp_ratio = composite.composite_replication_ratio()
    return {
        "parhp_s": parhp_seconds,
        "parmhp_s": profile.total_time,
        "time_saving": (parhp_seconds - profile.total_time)
        / max(parhp_seconds, 1e-12),
        "initial_ratio": initial_ratio,
        "separate_ratio": separate,
        "composite_ratio": comp_ratio,
        "space_saving": composite.space_saving(),
        "extra_over_initial": (comp_ratio - initial_ratio)
        / max(initial_ratio, 1e-12),
    }


figure10b = reading(figure10b_cells)


def rows(data: Dict[str, Dict[str, float]]) -> List[List]:
    """Flatten the Fig. 10(b) data into printable rows."""
    out: List[List] = []
    for baseline, cell in data.items():
        out.append(
            [
                baseline,
                round(cell["parhp_s"], 3),
                round(cell["parmhp_s"], 3),
                f"{cell['time_saving']:.0%}",
                round(cell["separate_ratio"], 2),
                round(cell["composite_ratio"], 2),
                f"{cell['space_saving']:.0%}",
                f"{cell['extra_over_initial']:.0%}",
            ]
        )
    return out


HEADERS = [
    "baseline",
    "5x ParHP (s)",
    "ParMHP (s)",
    "time saved",
    "separate f",
    "composite f_c",
    "space saved",
    "extra vs initial",
]
