"""Incremental maintenance bench: delta-patched plans + dirty-region refinement.

Measures the two halves of the DESIGN §15 fast path and emits
``BENCH_incremental.json``:

1. **Plan patching** — after small batches of partition-level mutations
   (master moves on border vertices), ``plan_for(partition)`` patches
   the stale :class:`FragmentPlan` from the mutation journal instead of
   recompiling the O(V+E) routing tables.  Patched plans are asserted
   bit-identical to a fresh compile before any timing is reported.

2. **Dirty-region refinement** — after a :class:`MutationBatch` of edge
   insertions/deletions is applied through the coherence hooks,
   ``refine_incremental`` re-refines only the dirty frontier over a
   journal-seeded tracker.  The cost-model *rescoring calls* (every
   ``h``/``g`` polynomial request, counted before memoization) are
   compared against a full re-refinement of the same mutated partition,
   and the final parallel cost must match the full pass within 1%.

Standalone usage (a step of CI's pipeline-bench job):

    PYTHONPATH=src python benchmarks/bench_incremental.py --smoke

Acceptance bars (full mode): plan patching >= 10x faster than a full
recompile for every batch of <= 1% of the vertices at medium scale, and
dirty-region refinement reaches a median >= 5x reduction in rescoring
calls per refiner with every cost gap <= 1%.  Smoke mode keeps the
bit-identity and cost-gap checks and only requires ratios >= 1x.
"""

import argparse
import json
import random
import statistics
import sys
import time
from typing import Dict, List

import numpy as np

from repro.core.dirty import RescoringModel  # noqa: F401  (documented dependency)
from repro.core.e2h import E2H
from repro.core.incremental import MutationBatch, apply_mutations
from repro.core.v2h import V2H
from repro.costmodel.library import builtin_cost_model
from repro.graph.generators import chung_lu_power_law
from repro.partition.hybrid import HybridPartition
from repro.runtime.plan import FragmentPlan, plan_for, plan_stats

NUM_FRAGMENTS = 8
REPEATS = 5

#: plan-patch ladder: (vertices, avg degree, mutation batch sizes).  All
#: batches stay <= 1% of the vertex set at the acceptance ("medium") scale.
PLAN_SCALES = {
    "small": (800, 8.0, (4, 8)),
    "medium": (3000, 10.0, (4, 8, 30)),
}
#: dirty-refinement ladder per refiner: (vertices, avg degree, batches).
#: V2H runs a larger graph: VMerge promotions touch far endpoints, so the
#: scoped pass needs room for the frontier to stay a small fraction.
REFINE_SCALES = {
    "small": {"e2h": (800, 8.0, (2, 6)), "v2h": (1000, 8.0, (4, 8))},
    "medium": {"e2h": (3000, 10.0, (2, 8, 30)), "v2h": (4000, 8.0, (6, 10, 16))},
}
SEEDS = (11, 23, 37)


def _edge_cut(graph, seed: int) -> HybridPartition:
    rng = np.random.default_rng(seed)
    assignment = rng.integers(0, NUM_FRAGMENTS, size=graph.num_vertices)
    return HybridPartition.from_vertex_assignment(
        graph, assignment.tolist(), NUM_FRAGMENTS
    )


def _vertex_cut(graph, seed: int) -> HybridPartition:
    rng = np.random.default_rng(seed)
    assignment = {e: int(rng.integers(0, NUM_FRAGMENTS)) for e in graph.edges()}
    return HybridPartition.from_edge_assignment(graph, assignment, NUM_FRAGMENTS)


# ----------------------------------------------------------------------
# Part 1: delta-patched FragmentPlans
# ----------------------------------------------------------------------
def _assert_plans_identical(patched: FragmentPlan, partition) -> None:
    """Every routing array of the patched plan matches a fresh compile."""
    fresh = FragmentPlan(partition)
    for name in ("master_of", "rep_count", "border_mask", "place_indptr", "place_fids"):
        a, b = getattr(patched, name), getattr(fresh, name)
        assert np.array_equal(a, b), f"patched plan diverges in {name}"
        assert a.dtype == b.dtype, f"patched plan dtype differs in {name}"
    assert np.array_equal(patched.home_of(), fresh.home_of())
    for fid in range(partition.num_fragments):
        assert np.array_equal(patched.verts(fid), fresh.verts(fid))
        assert np.array_equal(patched.roles(fid), fresh.roles(fid))
        assert patched.edge_list(fid) == fresh.edge_list(fid)


def _mutate_masters(partition, rnd: random.Random, count: int) -> None:
    """Move ``count`` border masters to another host (partition-level only)."""
    movable = [
        v
        for v, hosts in partition.vertex_fragments()
        if len(hosts) > 1
    ]
    moved = 0
    rnd.shuffle(movable)
    for v in movable:
        if moved >= count:
            break
        hosts = sorted(partition.placement(v))
        current = partition.master(v)
        target = next(fid for fid in hosts if fid != current)
        partition.set_master(v, target)
        moved += 1
    assert moved == count, "graph too small for the requested mutation batch"


def bench_plan_patch(scale: str) -> Dict:
    n, deg, batches = PLAN_SCALES[scale]
    graph = chung_lu_power_law(n, deg, exponent=2.1, directed=True, seed=22)
    partition = _edge_cut(graph, seed=7)
    rnd = random.Random(5)
    entry: Dict[str, Dict] = {}
    for batch in batches:
        patch_s: List[float] = []
        recompile_s: List[float] = []
        for rep in range(REPEATS):
            plan_for(partition)  # warm cache
            _mutate_masters(partition, rnd, batch)
            before = plan_stats().snapshot()
            start = time.perf_counter()
            patched = plan_for(partition)
            patch_s.append(time.perf_counter() - start)
            after = plan_stats().snapshot()
            assert after[1] == before[1] + 1, (
                f"batch={batch}: plan_for took {after} over {before}, "
                "expected the delta-patch path"
            )
            if rep == 0:
                _assert_plans_identical(patched, partition)
            _mutate_masters(partition, rnd, batch)
            partition._kernel_plan = None
            start = time.perf_counter()
            plan_for(partition)
            recompile_s.append(time.perf_counter() - start)
        patch = statistics.median(patch_s)
        recompile = statistics.median(recompile_s)
        entry[str(batch)] = {
            "dirty_fraction": batch / n,
            "patch_seconds": patch,
            "recompile_seconds": recompile,
            "ratio": recompile / patch if patch else float("inf"),
            "bit_identical": True,  # _assert_plans_identical would have raised
        }
    return {"vertices": n, "edges": graph.num_edges, "batches": entry}


# ----------------------------------------------------------------------
# Part 2: dirty-region refinement vs. full re-refinement
# ----------------------------------------------------------------------
def _random_batch(graph, rnd: random.Random, size: int) -> MutationBatch:
    """Half deletions of existing edges, half fresh insertions."""
    edges = list(graph.edges())
    removals = rnd.sample(edges, size // 2)
    lines = [f"- {u} {v}" for u, v in removals]
    while len(lines) < size:
        u = rnd.randrange(graph.num_vertices)
        v = rnd.randrange(graph.num_vertices)
        if u != v and not graph.has_edge(u, v):
            lines.append(f"+ {u} {v}")
    return MutationBatch.parse("\n".join(lines))


def _converged_base(kind: str, graph, model, seed: int):
    """A refined partition whose refiner holds a fresh tracker seed."""
    if kind == "e2h":
        refiner = E2H(model)
        partition = refiner.refine(_edge_cut(graph, seed), in_place=True,
                                   capture_seed=True)
        partition = refiner.refine(partition, in_place=True, capture_seed=True)
    else:
        refiner = V2H(model)
        partition = refiner.refine(_vertex_cut(graph, seed), in_place=True,
                                   capture_seed=True)
        for _ in range(3):
            if refiner.last_stats.vmerged == 0:
                break
            partition = refiner.refine(partition, in_place=True, capture_seed=True)
    return refiner, partition


def bench_dirty_refinement(scale: str, kind: str) -> Dict:
    n, deg, batches = REFINE_SCALES[scale][kind]
    model = builtin_cost_model("pr")
    trials: List[Dict] = []
    for seed in SEEDS:
        graph = chung_lu_power_law(
            n, deg, exponent=2.1, directed=(kind == "e2h"), seed=seed
        )
        refiner, partition = _converged_base(kind, graph, model, seed)
        rnd = random.Random(seed * 7 + 1)
        for batch_size in batches:
            batch = _random_batch(graph, rnd, batch_size)
            dirty = apply_mutations(partition, batch)
            # Reference: full re-refinement of the same mutated partition.
            reference = type(refiner)(model)
            reference.refine(partition.copy(), in_place=True)
            full_calls = reference.last_stats.rescoring_calls
            full_cost = reference.last_stats.cost_after
            # Fast path: dirty-region refinement, continuing the stream.
            partition = refiner.refine_incremental(partition, dirty)
            stats = refiner.last_stats
            inc_calls = stats.rescoring_calls
            cost_gap = (stats.cost_after - full_cost) / full_cost if full_cost else 0.0
            trials.append(
                {
                    "seed": seed,
                    "batch": batch_size,
                    "dirty": len(dirty),
                    "frontier": stats.incremental.frontier,
                    "seeded": stats.incremental.seeded,
                    "full_rescoring_calls": full_calls,
                    "incremental_rescoring_calls": inc_calls,
                    "ratio": full_calls / inc_calls if inc_calls else float("inf"),
                    "cost_gap": cost_gap,
                }
            )
    ratios = [t["ratio"] for t in trials]
    return {
        "vertices": n,
        "trials": trials,
        "median_ratio": statistics.median(ratios),
        "min_ratio": min(ratios),
        "max_cost_gap": max(t["cost_gap"] for t in trials),
    }


def run_bench(scale: str) -> Dict:
    return {
        "scale": scale,
        "num_fragments": NUM_FRAGMENTS,
        "repeats": REPEATS,
        "plan_patch": bench_plan_patch(scale),
        "dirty_refinement": {
            kind: bench_dirty_refinement(scale, kind) for kind in ("e2h", "v2h")
        },
    }


def check_report(report: Dict, smoke: bool = False) -> None:
    """The bench's assertions: exactness always, speed where promised."""
    patch_floor = 1.0 if smoke else 10.0
    for batch, cell in report["plan_patch"]["batches"].items():
        assert cell["bit_identical"], f"plan patch batch={batch} diverged"
        assert cell["ratio"] >= patch_floor, (
            f"plan patch batch={batch}: {cell['ratio']:.1f}x is below the "
            f"{patch_floor:.0f}x bar"
        )
    gap_ceiling = 0.05 if smoke else 0.01
    ratio_floor = 1.0 if smoke else 5.0
    for kind, entry in report["dirty_refinement"].items():
        assert entry["max_cost_gap"] <= gap_ceiling, (
            f"{kind}: incremental cost drifts {entry['max_cost_gap']:.2%} "
            f"above full re-refinement (ceiling {gap_ceiling:.0%})"
        )
        assert entry["median_ratio"] >= ratio_floor, (
            f"{kind}: median rescoring reduction {entry['median_ratio']:.1f}x "
            f"is below the {ratio_floor:.0f}x bar"
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small scale only (fast CI smoke; keeps exactness, relaxes bars)",
    )
    parser.add_argument(
        "--out", default="BENCH_incremental.json", help="output JSON path"
    )
    args = parser.parse_args(argv)
    report = run_bench("small" if args.smoke else "medium")
    check_report(report, smoke=args.smoke)
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2)
    for batch, cell in report["plan_patch"]["batches"].items():
        print(
            f"plan patch  batch={batch:>3}: patch "
            f"{cell['patch_seconds'] * 1e3:7.2f}ms vs recompile "
            f"{cell['recompile_seconds'] * 1e3:7.2f}ms ({cell['ratio']:.1f}x)"
        )
    for kind, entry in report["dirty_refinement"].items():
        print(
            f"dirty {kind}: median {entry['median_ratio']:.1f}x fewer "
            f"rescoring calls over {len(entry['trials'])} trials "
            f"(min {entry['min_ratio']:.1f}x, worst cost gap "
            f"{entry['max_cost_gap']:+.2%})"
        )
    print(f"wrote {args.out}")
    return 0


def test_incremental_maintenance(benchmark, print_section):
    """Pytest wrapper: the medium grid under the bench harness."""
    from benchmarks.conftest import run_once

    report = run_once(benchmark, lambda: run_bench("medium"))
    check_report(report)
    summary = {
        "plan_patch": {
            batch: round(cell["ratio"], 1)
            for batch, cell in report["plan_patch"]["batches"].items()
        },
        "dirty_refinement": {
            kind: {
                "median_ratio": round(entry["median_ratio"], 1),
                "max_cost_gap": round(entry["max_cost_gap"], 4),
            }
            for kind, entry in report["dirty_refinement"].items()
        },
    }
    print_section(
        "Extension: incremental maintenance (plan patching + dirty-region refinement)",
        json.dumps(summary, indent=2),
    )


if __name__ == "__main__":
    sys.exit(main())
