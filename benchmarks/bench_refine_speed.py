"""Refinement fast-path bench: gain cache vs. uncached reference.

Runs all six refiners (E2H, V2H, ME2H, MV2H, ParE2H, ParV2H) on a
ladder of synthetic power-law graphs, once with ``use_gain_cache=True``
and once with the uncached reference oracle, and emits
``BENCH_refine.json``: wall-clock seconds, raw cost-model rescoring
calls (polynomial evaluations counted *beneath* the memo layer), the
reduction ratio, and the cache's hit/miss/invalidation counters.

Every cached run is verified bit-identical to its uncached twin before
any number is reported — a speedup that changes the output would be a
bug, not a result.

Standalone usage:

    PYTHONPATH=src python benchmarks/bench_refine_speed.py --smoke

The pytest wrapper runs the same ladder under the bench harness.

Expected shape: the memoized evaluations collapse to the graph's
distinct feature profiles, so rescoring calls drop well over 2× for the
single-model refiners on the medium graph (the acceptance bar), with
wall-clock following.
"""

import argparse
import json
import sys
import time
from typing import Dict

from repro.core import E2H, ME2H, MV2H, ParE2H, ParV2H, V2H
from repro.costmodel.library import builtin_cost_model
from repro.costmodel.model import CostModel
from repro.graph.generators import chung_lu_power_law
from repro.partition.serialize import partition_to_dict
from repro.partitioners.base import get_partitioner

NUM_FRAGMENTS = 8
#: Graph ladder: (vertices, avg degree, seed).  "medium" is the
#: acceptance-criterion scale.
SCALES = {
    "small": (300, 8.0, 11),
    "medium": (1000, 12.0, 22),
    "large": (2000, 12.0, 33),
}
ALGORITHMS = ("pr", "wcc")


class CountingCostModel(CostModel):
    """Counts raw ``h``/``g`` evaluations, delegating to ``base``.

    Sits *beneath* the gain cache's memo layer, so in cached runs only
    evaluations that actually reach the polynomials are counted — the
    honest definition of a "rescoring call".
    """

    def __init__(self, base: CostModel) -> None:
        super().__init__(name=base.name, h=base.h, g=base.g, gate=base.gate)
        self.base = base
        self.h_evals = 0
        self.g_evals = 0

    @property
    def total(self) -> int:
        return self.h_evals + self.g_evals

    def h_value(self, features) -> float:
        self.h_evals += 1
        return self.base.h_value(features)

    def g_value(self, features) -> float:
        self.g_evals += 1
        return self.base.g_value(features)


def _input_partition(graph, kind: str):
    name = "fennel" if kind == "edge" else "ne"
    return get_partitioner(name).partition(graph, NUM_FRAGMENTS)


def _cache_summary(stats) -> Dict:
    """Normalize RefineStats.gain_cache / CompositeStats.gain_cache."""
    if stats is None:
        return {}
    if isinstance(stats, dict):
        return {name: s.as_dict() for name, s in stats.items()}
    return stats.as_dict()


def _run_single(refiner_cls, graph, input_kind, use_gain_cache):
    counter = CountingCostModel(builtin_cost_model("pr"))
    initial = _input_partition(graph, input_kind)
    refiner = refiner_cls(counter, use_gain_cache=use_gain_cache)
    start = time.perf_counter()
    result = refiner.refine(initial)
    wall = time.perf_counter() - start
    refined = result[0] if isinstance(result, tuple) else result
    stats = (
        result[1].stats if isinstance(result, tuple) else refiner.last_stats
    )
    return {
        "partitions": {"pr": partition_to_dict(refined)},
        "rescoring_calls": counter.total,
        "wall_seconds": wall,
        "gain_cache": _cache_summary(stats.gain_cache),
    }


def _run_composite(refiner_cls, graph, input_kind, use_gain_cache):
    counters = {
        name: CountingCostModel(builtin_cost_model(name)) for name in ALGORITHMS
    }
    initial = _input_partition(graph, input_kind)
    refiner = refiner_cls(counters, use_gain_cache=use_gain_cache)
    start = time.perf_counter()
    composite = refiner.refine(initial)
    wall = time.perf_counter() - start
    return {
        "partitions": {
            name: partition_to_dict(part)
            for name, part in composite.partitions.items()
        },
        "rescoring_calls": sum(c.total for c in counters.values()),
        "wall_seconds": wall,
        "gain_cache": _cache_summary(refiner.last_stats.gain_cache),
    }


REFINERS = {
    "e2h": (E2H, "edge", _run_single),
    "v2h": (V2H, "vertex", _run_single),
    "me2h": (ME2H, "edge", _run_composite),
    "mv2h": (MV2H, "vertex", _run_composite),
    "pare2h": (ParE2H, "edge", _run_single),
    "parv2h": (ParV2H, "vertex", _run_single),
}


def run_bench(scales=("small", "medium", "large")) -> Dict:
    """Run the full cached-vs-uncached grid; returns the report dict."""
    report = {"num_fragments": NUM_FRAGMENTS, "scales": {}}
    for scale in scales:
        n, deg, seed = SCALES[scale]
        graph = chung_lu_power_law(n, deg, exponent=2.1, directed=True, seed=seed)
        rows = {}
        for name, (cls, kind, runner) in REFINERS.items():
            cached = runner(cls, graph, kind, True)
            uncached = runner(cls, graph, kind, False)
            bit_identical = cached["partitions"] == uncached["partitions"]
            rows[name] = {
                "bit_identical": bit_identical,
                "rescoring_calls_uncached": uncached["rescoring_calls"],
                "rescoring_calls_cached": cached["rescoring_calls"],
                "rescoring_reduction": (
                    uncached["rescoring_calls"] / cached["rescoring_calls"]
                    if cached["rescoring_calls"]
                    else float("inf")
                ),
                "wall_seconds_uncached": uncached["wall_seconds"],
                "wall_seconds_cached": cached["wall_seconds"],
                "gain_cache": cached["gain_cache"],
            }
        report["scales"][scale] = {
            "vertices": n,
            "edges": graph.num_edges,
            "refiners": rows,
        }
    return report


def check_report(report: Dict) -> None:
    """The bench's assertions: exactness everywhere, speedup where promised."""
    for scale, data in report["scales"].items():
        for name, row in data["refiners"].items():
            assert row["bit_identical"], f"{name}@{scale} output diverged"
            assert (
                row["rescoring_calls_cached"] <= row["rescoring_calls_uncached"]
            ), f"{name}@{scale} cached path rescored more than uncached"
    medium = report["scales"].get("medium")
    if medium:
        for name in ("e2h", "v2h"):
            reduction = medium["refiners"][name]["rescoring_reduction"]
            assert reduction >= 2.0, (
                f"{name} rescoring reduction {reduction:.2f}x on medium "
                "is below the 2x acceptance bar"
            )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small scale only (fast CI smoke; skips the medium 2x check)",
    )
    parser.add_argument(
        "--out", default="BENCH_refine.json", help="output JSON path"
    )
    args = parser.parse_args(argv)
    scales = ("small",) if args.smoke else ("small", "medium", "large")
    report = run_bench(scales)
    check_report(report)
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2)
    for scale, data in report["scales"].items():
        for name, row in data["refiners"].items():
            print(
                f"{scale:>6} {name:>7}: {row['rescoring_calls_uncached']:>8} -> "
                f"{row['rescoring_calls_cached']:>8} rescoring calls "
                f"({row['rescoring_reduction']:.2f}x), "
                f"{row['wall_seconds_uncached']:.3f}s -> "
                f"{row['wall_seconds_cached']:.3f}s"
            )
    print(f"wrote {args.out}")
    return 0


def test_refine_speed(benchmark, print_section):
    """Pytest wrapper: small+medium ladder under the bench harness."""
    from benchmarks.conftest import run_once

    report = run_once(benchmark, lambda: run_bench(("small", "medium")))
    check_report(report)
    summary = {
        scale: {
            name: {
                k: row[k]
                for k in (
                    "bit_identical",
                    "rescoring_calls_uncached",
                    "rescoring_calls_cached",
                    "rescoring_reduction",
                )
            }
            for name, row in data["refiners"].items()
        }
        for scale, data in report["scales"].items()
    }
    print_section(
        "Extension: gain-cache rescoring reduction (all six refiners, n=8)",
        json.dumps(summary, indent=2),
    )


if __name__ == "__main__":
    sys.exit(main())
