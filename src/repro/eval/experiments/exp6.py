"""Exp-6: cost-model learning accuracy and efficiency (Table 5).

Trains the computational and communication cost functions of the five
algorithms from instrumented runs over the mixed training roster
(Section 4), and reports the learned polynomial, its test MSRE and the
training time — the Table 5 columns.  Also times the single-machine
reference implementations, standing in for the paper's Gunrock remark
(no-partitioning comparison point).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from operator import itemgetter
from typing import Dict, List, Optional, Sequence

from repro.algorithms import reference
from repro.costmodel.collection import collect_training_data, default_training_graphs
from repro.costmodel.trained import (
    G_VARIABLES,
    H_DEGREE,
    H_VARIABLES,
    TRAIN_PARAMS,
)
from repro.costmodel.training import TrainingReport, fit_cost_function
from repro.eval.harness import reading


@dataclass
class Table5Row:
    """One learned cost model row of Table 5."""

    algorithm: str
    h_report: TrainingReport
    g_report: Optional[TrainingReport]

    def as_row(self) -> List:
        """Printable Table 5 row."""
        g_func = str(self.g_report.function) if self.g_report else "-"
        g_msre = round(self.g_report.test_msre, 3) if self.g_report else "-"
        g_time = round(self.g_report.training_time, 2) if self.g_report else "-"
        return [
            self.algorithm.upper(),
            str(self.h_report.function),
            round(self.h_report.test_msre, 3),
            round(self.h_report.training_time, 2),
            g_func,
            g_msre,
            g_time,
        ]


HEADERS = [
    "alg",
    "h_A",
    "h MSRE",
    "h train (s)",
    "g_A",
    "g MSRE",
    "g train (s)",
]


def table5(
    algorithms: Sequence[str] = ("cn", "tc", "wcc", "pr", "sssp"),
    num_graphs: int = 6,
    scale: int = 1,
    degree: int = 2,
    seed: int = 0,
) -> List[Table5Row]:
    """Train all cost models and return the Table 5 rows."""
    graphs = default_training_graphs(seed=seed, scale=scale)[:num_graphs]
    rows: List[Table5Row] = []
    for algorithm in algorithms:
        params = TRAIN_PARAMS.get(algorithm)
        comp, comm = collect_training_data(
            algorithm, graphs, num_fragments=4, seed=seed, algorithm_params=params
        )
        h_report = fit_cost_function(
            comp, H_VARIABLES[algorithm], degree=H_DEGREE[algorithm],
            name=f"h_{algorithm}", seed=seed,
        )
        g_report = None
        if comm:
            g_report = fit_cost_function(
                comm, G_VARIABLES[algorithm], degree=degree,
                name=f"g_{algorithm}", seed=seed,
            )
        rows.append(Table5Row(algorithm, h_report, g_report))
    return rows


def gunrock_substitute_times(dataset_graph) -> Dict[str, float]:
    """Single-machine reference timings (the Gunrock comparison point)."""
    timings: Dict[str, float] = {}
    jobs = {
        "tc": lambda: reference.reference_triangle_count(dataset_graph),
        "wcc": lambda: reference.reference_wcc(dataset_graph),
        "sssp": lambda: reference.reference_sssp(dataset_graph, 0),
        "pr": lambda: reference.reference_pagerank(dataset_graph, iterations=10),
    }
    for name, job in jobs.items():
        start = time.perf_counter()
        job()
        timings[name] = time.perf_counter() - start
    return timings


# ----------------------------------------------------------------------
# Engine integration.  Table 5 training and the reference timings are
# memo cells: plain JSON in, plain JSON out, addressed by name so worker
# processes can execute them and later sweeps replay the artifact
# (including the measured training/wall seconds).
# ----------------------------------------------------------------------
def _table5_params(
    algorithms: Sequence[str] = ("cn", "tc", "wcc", "pr", "sssp"),
    num_graphs: int = 6,
    scale: int = 1,
    degree: int = 2,
    seed: int = 0,
) -> Dict:
    return {
        "algorithms": list(algorithms),
        "num_graphs": num_graphs,
        "scale": scale,
        "degree": degree,
        "seed": seed,
    }


def table5_payload(
    algorithms: Sequence[str] = ("cn", "tc", "wcc", "pr", "sssp"),
    num_graphs: int = 6,
    scale: int = 1,
    degree: int = 2,
    seed: int = 0,
) -> Dict:
    """Memo-cell body: Table 5 as JSON-serializable printable rows."""
    rows = table5(
        algorithms=tuple(algorithms),
        num_graphs=num_graphs,
        scale=scale,
        degree=degree,
        seed=seed,
    )
    return {"rows": [row.as_row() for row in rows]}


def table5_cells(source, **kwargs) -> List[List]:
    """Printable Table 5 rows via the active engine (memoized)."""
    return source.derive(
        itemgetter("rows"), source.memo("exp6_table5", _table5_params(**kwargs))
    )


table5_rows = reading(table5_cells)


def reference_times_payload(dataset: str) -> Dict:
    """Memo-cell body: single-machine reference timings for ``dataset``."""
    from repro.eval.datasets import load_dataset

    return {"times": gunrock_substitute_times(load_dataset(dataset))}


def reference_times_cells(source, dataset: str) -> Dict[str, float]:
    """Reference timings via the active engine (memoized)."""
    return source.derive(
        itemgetter("times"),
        source.memo("exp6_reference_times", {"dataset": dataset}),
    )


reference_times = reading(reference_times_cells)
