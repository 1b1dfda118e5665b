"""Appendix experiment: phase decomposition of ParE2H / ParV2H (Fig. 11).

ParE2H_k (resp. ParV2H_k) runs only the first k phases; the speedup gain
of phase k is read off the difference between ParE2H_{k-1} and
ParE2H_k.  The paper finds EMigrate/VMigrate dominating (67-97% of the
speedup), ESplit mattering most for CN/TC, and MAssign contributing a
consistent single-to-low-double-digit share.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.eval.harness import BASELINES, algorithm_params, reading

E2H_FLAGS = ("enable_emigrate", "enable_esplit", "enable_massign")
V2H_FLAGS = ("enable_vmigrate", "enable_vmerge", "enable_massign")


def _cut_and_flags(baseline: str):
    cut = BASELINES.get(baseline, ("unknown", None))[0]
    if cut not in ("edge", "vertex"):
        raise ValueError(f"cannot refine a {cut!r} baseline ({baseline!r})")
    return cut, (E2H_FLAGS if cut == "edge" else V2H_FLAGS)


def phase_cells(
    source,
    dataset: str = "twitter_like",
    baseline: str = "xtrapulp",
    algorithms: Sequence[str] = ("cn", "tc", "wcc", "pr", "sssp"),
    num_fragments: int = 8,
) -> Dict[str, List[float]]:
    """Per algorithm: cumulative speedups [S1, S2, S3] of phase prefixes.

    ``S_k`` is the speedup of the k-phase refiner over the unrefined
    baseline; phase k's marginal contribution is ``S_k − S_{k−1}``.
    A hybrid or unknown ``baseline`` raises ``ValueError`` before any
    cell is asked for.
    """
    cut, flags = _cut_and_flags(baseline)
    initial = source.partition(dataset, baseline, num_fragments)

    out: Dict[str, List[float]] = {}
    for algorithm in algorithms:
        params = algorithm_params(algorithm, dataset)
        base_time = source.run(dataset, algorithm, initial, params)
        speedups: List[float] = []
        for k in range(1, len(flags) + 1):
            kwargs = {flag: (idx < k) for idx, flag in enumerate(flags)}
            refined = source.refine(
                dataset, baseline, num_fragments, algorithm, cut, **kwargs
            )
            refined_time = source.run(dataset, algorithm, refined, params)
            speedups.append(source.derive(speedup, base_time, refined_time))
        out[algorithm] = speedups
    return out


def speedup(base_time: float, refined_time: float) -> float:
    """Speedup of a refined run over the baseline run."""
    return base_time / refined_time if refined_time else 0.0


phase_speedups = reading(phase_cells)


def contribution_rows(data: Dict[str, List[float]]) -> List[List]:
    """Fig. 11 bars: per-phase marginal share of the total speedup gain."""
    rows: List[List] = []
    for algorithm, cumulative in data.items():
        total_gain = cumulative[-1] - 1.0
        previous = 1.0
        shares = []
        for value in cumulative:
            shares.append(max(0.0, value - previous))
            previous = value
        denom = sum(shares) or 1.0
        rows.append(
            [algorithm.upper()]
            + [round(v, 2) for v in cumulative]
            + [f"{share / denom:.0%}" for share in shares]
            + [round(total_gain, 2)]
        )
    return rows


HEADERS = [
    "alg",
    "S1",
    "S2",
    "S3",
    "phase1 share",
    "phase2 share",
    "phase3 share",
    "total gain",
]
