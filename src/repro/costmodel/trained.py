"""Runtime-calibrated cost models (the paper's actual pipeline).

Table 5's coefficients encode the *paper's* cluster; our substrate is the
BSP simulator, whose per-copy costs differ (e.g. CN's cross-copy pair
merging runs at the master).  The application-driven strategy (Section
3.2, step 1) says: learn the cost model **on the system the algorithm
will run on**.  This module does exactly that — it trains ``(h_A, g_A)``
for each algorithm from instrumented runs on the simulator and caches the
result on disk, so partitioning experiments use models that describe the
costs they are optimizing.

``trained_cost_model(name)`` is what the evaluation harness uses;
``builtin_cost_model`` (Table 5) remains available as the published
reference and as a fallback when training is disabled.
"""

from __future__ import annotations

import json
import os
from functools import lru_cache
from typing import Dict, Optional, Sequence

from repro.costmodel.collection import (
    default_training_graphs,
    harvest,
    training_partitions,
)
from repro.costmodel.model import CostModel
from repro.costmodel.polynomial import Monomial, PolynomialCostFunction
from repro.costmodel.training import fit_cost_function

CACHE_VERSION = 5  # bump when features/algorithms/collection change
DEFAULT_CACHE = os.path.join(
    os.path.expanduser("~"), ".cache", "repro", f"trained_models_v{CACHE_VERSION}.json"
)

#: variables offered to the learner per algorithm; the M (master) and r
#: indicators let it express master-side merge work for CN/TC.
H_VARIABLES: Dict[str, Sequence[str]] = {
    "cn": ("d_in_L", "d_in_G", "r", "M"),
    # TC's degree-ordering optimization makes its true cost a poor
    # polynomial target (the paper reports its worst MSRE for h_TC);
    # the paper's own variable pair is the most robust choice.
    "tc": ("d_L", "d_G"),
    "wcc": ("d_L",),
    "pr": ("d_in_L",),
    "sssp": ("d_out_L",),
}
G_VARIABLES: Dict[str, Sequence[str]] = {
    "cn": ("d_in_L", "r", "M"),
    "tc": ("d_G", "r", "I"),
    "wcc": ("r",),
    "pr": ("r",),
    "sssp": ("r",),
}

ALGORITHMS = ("cn", "tc", "wcc", "pr", "sssp")

#: polynomial order per algorithm.  CN/TC need degree 3: the master-side
#: merge of a split vertex costs ~M·d², a genuinely cubic interaction.
H_DEGREE: Dict[str, int] = {"cn": 3, "tc": 2, "wcc": 2, "pr": 2, "sssp": 2}

#: training-time algorithm parameters.  CN trains with the same degree
#: threshold θ the evaluation deploys it with — the cost model must
#: describe the algorithm variant that actually runs (Section 4 collects
#: samples only from "vertices that are used in computation").
TRAIN_PARAMS: Dict[str, Dict] = {
    "pr": {"iterations": 3},
    "cn": {"theta": 300},
}


def train_models(
    algorithms: Sequence[str] = ALGORITHMS,
    num_graphs: int = 4,
    scale: int = 1,
    seed: int = 0,
) -> Dict[str, CostModel]:
    """Train fresh cost models for ``algorithms`` on the simulator, every
    one of them on the same random partitions of the training roster."""
    graphs = default_training_graphs(seed=seed, scale=scale)[:num_graphs]
    samples = harvest(
        {algorithm: TRAIN_PARAMS.get(algorithm) for algorithm in algorithms},
        training_partitions(graphs, num_fragments=4, seed=seed),
    )
    models: Dict[str, CostModel] = {}
    for algorithm in algorithms:
        params = TRAIN_PARAMS.get(algorithm)
        comp, comm = samples[algorithm]
        h_report = fit_cost_function(
            comp,
            H_VARIABLES[algorithm],
            degree=H_DEGREE[algorithm],
            name=f"h_{algorithm}",
            seed=seed,
        )
        if comm:
            g_report = fit_cost_function(
                comm, G_VARIABLES[algorithm], degree=2, name=f"g_{algorithm}", seed=seed
            )
            g_function = g_report.function
        else:
            g_function = PolynomialCostFunction(
                [Monomial(0.0, {})], name=f"g_{algorithm}"
            )
        gate = None
        if params and "theta" in params:
            # Vertices above the degree threshold are skipped by the
            # deployed algorithm variant, so they must cost zero.
            gate = ("d_in_G", float(params["theta"]))
        models[algorithm] = CostModel(algorithm, h_report.function, g_function, gate)
    return models


def _save_cache(models: Dict[str, CostModel], path: str) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    payload = {
        name: {
            "h": model.h.to_dict(),
            "g": model.g.to_dict(),
            "gate": list(model.gate) if model.gate else None,
        }
        for name, model in models.items()
    }
    with open(path, "w", encoding="ascii") as handle:
        json.dump(payload, handle)


def _load_cache(path: str) -> Optional[Dict[str, CostModel]]:
    if not os.path.exists(path):
        return None
    try:
        with open(path, "r", encoding="ascii") as handle:
            payload = json.load(handle)
        return {
            name: CostModel(
                name,
                PolynomialCostFunction.from_dict(entry["h"]),
                PolynomialCostFunction.from_dict(entry["g"]),
                tuple(entry["gate"]) if entry.get("gate") else None,
            )
            for name, entry in payload.items()
        }
    except (ValueError, KeyError, OSError):
        return None


@lru_cache(maxsize=1)
def trained_cost_models(cache_path: str = DEFAULT_CACHE) -> Dict[str, CostModel]:
    """All five trained models, from the disk cache or a fresh training run."""
    cached = _load_cache(cache_path)
    if cached is not None and set(cached) >= set(ALGORITHMS):
        return cached
    models = train_models()
    try:
        _save_cache(models, cache_path)
    except OSError:
        pass  # cache is an optimization only
    return models


def trained_cost_model(algorithm: str) -> CostModel:
    """The runtime-calibrated model for one algorithm."""
    models = trained_cost_models()
    try:
        return models[algorithm.lower()]
    except KeyError:
        raise KeyError(
            f"no trained model for {algorithm!r}; known: {sorted(models)}"
        ) from None
