"""Exp-1: effectiveness of application-driven partitioners.

Regenerates the Fig. 9(a-j) series — execution time of CN, TC, WCC, PR
and SSSP while varying the fragment count n, under each baseline and its
application-driven refinement — and Table 3's partition quality metrics.

The paper's headline shape: refined partitions (H-prefixed) beat their
baselines for every algorithm; gains are largest for CN/TC over edge-cuts
(workload skew), moderate for WCC/PR, small for SSSP.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

from repro.core.tracker import CostTracker
from repro.costmodel.trained import trained_cost_model
from repro.eval.harness import BASELINES, algorithm_params, reading
from repro.partition.quality import (
    cost_balance_factor,
    edge_balance_factor,
    edge_replication_ratio,
    vertex_balance_factor,
    vertex_replication_ratio,
)

Series = Dict[str, List[Tuple[int, float]]]


def figure9_cells(
    source,
    algorithm: str,
    dataset: str,
    fragment_counts: Sequence[int] = (2, 4, 8),
    baselines: Iterable[str] = BASELINES,
) -> Series:
    """One Fig. 9 panel: {partitioner label: [(n, seconds), ...]}.

    Labels follow the paper: a baseline name for the initial partition
    and its H-variant (HFennel, HGrid, ...) for the refined one.
    """
    params = algorithm_params(algorithm, dataset)
    series: Series = {}
    for baseline in baselines:
        cut_type, refined_label = BASELINES[baseline]
        for n in fragment_counts:
            initial = source.partition(dataset, baseline, n)
            base_time = source.run(dataset, algorithm, initial, params)
            series.setdefault(baseline, []).append((n, base_time))
            if cut_type in ("edge", "vertex"):
                refined = source.refine(dataset, baseline, n, algorithm, cut_type)
                refined_time = source.run(dataset, algorithm, refined, params)
                series.setdefault(refined_label, []).append((n, refined_time))
    return series


figure9_series = reading(figure9_cells)


def speedups(series: Series) -> Dict[str, float]:
    """Average speedup of each refined variant over its baseline."""
    out: Dict[str, float] = {}
    for baseline, (_cut, refined_label) in BASELINES.items():
        if refined_label is None or refined_label not in series:
            continue
        base = dict(series.get(baseline, ()))
        refined = dict(series[refined_label])
        ratios = [base[n] / refined[n] for n in refined if n in base and refined[n] > 0]
        if ratios:
            out[refined_label] = sum(ratios) / len(ratios)
    return out


def table3_cells(
    source,
    dataset: str = "twitter_like",
    num_fragments: int = 8,
    cost_algorithm: str = "cn",
) -> List[List]:
    """Table 3: f_v, f_e, λ_e, λ_v, λ_CN for every partitioner ± refinement."""
    model = trained_cost_model(cost_algorithm)

    def metrics(label: str, cell) -> List:
        partition, _measure = cell
        tracker = CostTracker(partition, model)
        lam_cost = cost_balance_factor(partition, model)
        tracker.detach()
        return [
            label,
            round(vertex_replication_ratio(partition), 2),
            round(edge_replication_ratio(partition), 2),
            round(edge_balance_factor(partition), 2),
            round(vertex_balance_factor(partition), 2),
            round(lam_cost, 2),
        ]

    rows: List[List] = []
    for baseline, (cut_type, refined_label) in BASELINES.items():
        initial = source.partition(dataset, baseline, num_fragments)
        rows.append(source.derive(metrics, baseline, initial))
        if cut_type in ("edge", "vertex"):
            refined = source.refine(
                dataset, baseline, num_fragments, cost_algorithm, cut_type
            )
            rows.append(source.derive(metrics, refined_label, refined))
    return rows


table3_rows = reading(table3_cells)


def table3_headers() -> List[str]:
    """Column names for Table 3."""
    return ["partitioner", "f_v", "f_e", "lambda_e", "lambda_v", "lambda_CN"]
