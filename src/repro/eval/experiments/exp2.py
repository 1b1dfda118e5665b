"""Exp-2: effectiveness of the composite partitioners (Table 4, Fig. 10(a)).

Fixes the batch {CN, TC, WCC, PR, SSSP} and compares, per baseline:

* running each algorithm on the **initial** static partition;
* on partitions refined **per algorithm** by ParE2H/ParV2H (``ParHP``);
* on the **composite** partition of ParME2H/ParMV2H (``ParMHP``).

The paper's shape: ParMHP's per-algorithm times are within single-digit
percent of ParHP's (≤ 8.2%), and both beat the initial partitions —
including the Ginger/TopoX hybrids.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.eval.harness import BASELINES, BATCH, algorithm_params, reading


def table4_cells(
    source,
    dataset: str = "twitter_like",
    num_fragments: int = 8,
    baselines: Sequence[str] = ("xtrapulp", "fennel", "grid", "ne"),
    batch: Tuple[str, ...] = BATCH,
) -> Dict[str, Dict[str, Dict[str, float]]]:
    """Table 4 data: per baseline, per algorithm, seconds under each scheme.

    Returns ``{baseline: {algorithm: {"initial": s, "parhp": s,
    "parmhp": s}}}`` plus a ``"batch"`` pseudo-algorithm with totals.
    """
    out: Dict[str, Dict[str, Dict[str, float]]] = {}
    for baseline in baselines:
        cut_type, _label = BASELINES[baseline]
        rows: Dict[str, Dict[str, float]] = {}
        composite = source.composite(
            dataset, baseline, num_fragments, batch, cut_type
        )
        initial = source.partition(dataset, baseline, num_fragments)
        for algorithm in batch:
            params = algorithm_params(algorithm, dataset)
            refined = source.refine(
                dataset, baseline, num_fragments, algorithm, cut_type
            )
            rows[algorithm] = {
                "initial": source.run(dataset, algorithm, initial, params),
                "parhp": source.run(dataset, algorithm, refined, params),
                "parmhp": source.run(
                    dataset, algorithm, composite, params, view=algorithm
                ),
            }
        rows["batch"] = source.derive(batch_sums, [rows[a] for a in batch])
        out[baseline] = rows
    return out


def batch_sums(rows: List[Dict[str, float]]) -> Dict[str, float]:
    """Per scheme, the seconds of the whole batch."""
    return {
        scheme: sum(row[scheme] for row in rows)
        for scheme in ("initial", "parhp", "parmhp")
    }


table4 = reading(table4_cells)


def table4_rows(data: Dict[str, Dict[str, Dict[str, float]]]) -> List[List]:
    """Flatten :func:`table4` output into printable rows."""
    rows: List[List] = []
    baselines = list(data)
    algorithms = [a for a in next(iter(data.values())) if a != "batch"] + ["batch"]
    for algorithm in algorithms:
        row: List = [algorithm.upper()]
        for baseline in baselines:
            cell = data[baseline][algorithm]
            speedup = cell["initial"] / cell["parmhp"] if cell["parmhp"] else 0.0
            row.extend(
                [
                    round(cell["parmhp"] * 1e3, 2),
                    round(cell["initial"] * 1e3, 2),
                    round(speedup, 1),
                ]
            )
        rows.append(row)
    return rows


def table4_headers(baselines: Sequence[str]) -> List[str]:
    """Column names for the flattened Table 4."""
    headers = ["app"]
    for baseline in baselines:
        headers.extend([f"M{baseline} (ms)", f"{baseline} (ms)", "X"])
    return headers


def composite_overhead(
    data: Dict[str, Dict[str, Dict[str, float]]]
) -> Dict[str, float]:
    """Fig. 10(a) claim: batch-time overhead of ParMHP over ParHP."""
    out: Dict[str, float] = {}
    for baseline, rows in data.items():
        parhp = rows["batch"]["parhp"]
        parmhp = rows["batch"]["parmhp"]
        out[baseline] = (parmhp - parhp) / parhp if parhp else 0.0
    return out
