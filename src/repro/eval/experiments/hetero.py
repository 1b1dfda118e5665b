"""Hetero axis: capacity-aware vs capacity-blind on skewed clusters.

The paper evaluates on a homogeneous cluster; this section adds the
heterogeneous axis (DESIGN.md §13).  For each scenario — ``uniform``,
``skewed-compute`` (one worker at quarter speed), ``skewed-net`` (one
worker behind a quarter-bandwidth NIC) — it compares, per baseline and
algorithm, the simulated runtime on the skewed cluster of:

* ``initial`` — the unrefined baseline partition;
* ``blind``   — refined by ParE2H/ParV2H *without* the cluster spec
  (capacity-blind: the refiner balances raw cost, then the skewed
  cluster executes the result);
* ``aware``   — refined *with* the spec (capacity-aware: balance
  targets become capacity shares, MAssign charges normalized load).

The headline claim: ``aware`` beats ``blind`` on the skewed scenarios
and ties it exactly on ``uniform`` (the uniform spec is bit-identical
to no spec, so blind and aware refinements are the same cell).

All three executions charge the scenario spec, so the comparison
isolates the *refinement* policy, not the simulator.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.eval.harness import BASELINES, algorithm_params, reading
from repro.runtime.clusterspec import ClusterSpec

#: evaluation scenarios, in table order
SCENARIOS = ("uniform", "skewed-compute", "skewed-net")

#: capacity of the degraded worker relative to its peers
SKEW_FACTOR = 0.25

HEADERS = ["scenario", "baseline", "app", "initial (ms)", "blind (ms)", "aware (ms)", "X"]


def scenario_spec(name: str, num_workers: int) -> ClusterSpec:
    """The :class:`ClusterSpec` of one named scenario.

    ``uniform`` returns the explicit all-ones spec (collapsed to the
    legacy no-spec path downstream), so the hetero section is pinned to
    its own scenarios even when ``run_all --cluster-spec`` installed a
    different process-wide default.
    """
    ones = (1.0,) * num_workers
    skewed = (SKEW_FACTOR,) + (1.0,) * (num_workers - 1)
    if name == "uniform":
        return ClusterSpec.uniform(num_workers)
    if name == "skewed-compute":
        return ClusterSpec(speeds=skewed, bandwidths=ones)
    if name == "skewed-net":
        return ClusterSpec(speeds=ones, bandwidths=skewed)
    raise KeyError(f"unknown hetero scenario {name!r}; known: {SCENARIOS}")


def _run_params(algorithm: str, dataset: str, spec: ClusterSpec) -> Dict:
    return {**algorithm_params(algorithm, dataset), "cluster_spec": spec.to_dict()}


def hetero_cells(
    source,
    dataset: str = "twitter_like",
    num_fragments: int = 4,
    baselines: Sequence[str] = ("xtrapulp", "ne"),
    algorithms: Sequence[str] = ("pr", "wcc", "sssp"),
    scenarios: Sequence[str] = SCENARIOS,
) -> Dict[str, Dict[str, Dict[str, Dict[str, float]]]]:
    """Hetero table data.

    Returns ``{scenario: {baseline: {algorithm: {"initial": s,
    "blind": s, "aware": s}}}}`` — simulated seconds on the scenario's
    cluster under each refinement policy.
    """
    uniform = ClusterSpec.uniform(num_fragments)
    out: Dict[str, Dict[str, Dict[str, Dict[str, float]]]] = {}
    for scenario in scenarios:
        spec = scenario_spec(scenario, num_fragments)
        per_baseline: Dict[str, Dict[str, Dict[str, float]]] = {}
        for baseline in baselines:
            cut_type, _label = BASELINES[baseline]
            initial = source.partition(dataset, baseline, num_fragments)
            rows: Dict[str, Dict[str, float]] = {}
            for algorithm in algorithms:
                params = _run_params(algorithm, dataset, spec)
                args = (dataset, baseline, num_fragments, algorithm, cut_type)
                blind = source.refine(*args, cluster_spec=uniform.to_dict())
                aware = source.refine(*args, cluster_spec=spec.to_dict())
                rows[algorithm] = {
                    "initial": source.run(dataset, algorithm, initial, params),
                    "blind": source.run(dataset, algorithm, blind, params),
                    "aware": source.run(dataset, algorithm, aware, params),
                }
            per_baseline[baseline] = rows
        out[scenario] = per_baseline
    return out


hetero_table = reading(hetero_cells)


def rows(data: Dict[str, Dict[str, Dict[str, Dict[str, float]]]]) -> List[List]:
    """Flatten :func:`hetero_table` output into printable rows."""
    out: List[List] = []
    for scenario, per_baseline in data.items():
        for baseline, per_algorithm in per_baseline.items():
            for algorithm, cell in per_algorithm.items():
                gain = cell["blind"] / cell["aware"] if cell["aware"] else 0.0
                out.append(
                    [
                        scenario,
                        baseline,
                        algorithm.upper(),
                        round(cell["initial"] * 1e3, 3),
                        round(cell["blind"] * 1e3, 3),
                        round(cell["aware"] * 1e3, 3),
                        round(gain, 2),
                    ]
                )
    return out


def capacity_gains(
    data: Dict[str, Dict[str, Dict[str, Dict[str, float]]]]
) -> Dict[str, float]:
    """Best blind/aware speedup per scenario (the headline numbers)."""
    out: Dict[str, float] = {}
    for scenario, per_baseline in data.items():
        best = 0.0
        for per_algorithm in per_baseline.values():
            for cell in per_algorithm.values():
                if cell["aware"]:
                    best = max(best, cell["blind"] / cell["aware"])
        out[scenario] = best
    return out
