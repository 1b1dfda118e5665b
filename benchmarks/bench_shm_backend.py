"""Shared-memory backend bench: true-parallel workers vs. in-process.

Runs PageRank over a locality-friendly ring-lattice graph (>= 2**20
edges in full mode) partitioned into contiguous vertex ranges — the
best case for the shm backend: fragment compute dominates, border sync
is tiny — once through the in-process ``simulated`` backend and once
through ``--backend shm`` at 1, 2, and 4 workers, and emits
``BENCH_shm.json``: wall-clock seconds per backend, the speedups, and
a measured-vs-simulated skew table (per-fragment wall-second shares
from :func:`last_shm_stats` against the CostClock's per-worker op
shares).

Every shm run is verified bit-identical to the simulated twin — values,
makespan, and the full :class:`RunProfile` dict — before any number is
reported.  The simulated metrics are the experiment's ground truth; the
shm backend must never perturb them.

Acceptance bar (full mode, machines with >= 4 cores): shm at 4 workers
reaches >= 2.5x over the in-process backend.  Hosts with fewer cores
(and smoke mode) record the measured numbers but only assert exactness
and segment hygiene.  ``REPRO_BENCH_SCALE`` multiplies the vertex
count for larger-machine sweeps.

Standalone usage (what a step of CI's pipeline-bench job runs):

    PYTHONPATH=src python benchmarks/bench_shm_backend.py --smoke
"""

import argparse
import json
import os
import sys
import time
from typing import Dict

import numpy as np

from repro.algorithms.registry import get_algorithm
from repro.graph.digraph import Graph
from repro.partition.hybrid import HybridPartition
from repro.runtime import shm as shm_mod
from repro.runtime.parallel import last_shm_stats, shm_available

NUM_FRAGMENTS = 8
#: out-degree of fragment ``f``'s vertices: BASE_DEGREE + f (7..14).
#: The gradient gives the skew table real skew to correlate, while the
#: round-robin fragment->worker deal keeps ideal parallelism at 4
#: workers at 3.5x — comfortably above the 2.5x acceptance floor.
BASE_DEGREE = 7
ITERATIONS = 5
WORKER_LADDER = (1, 2, 4)
SPEEDUP_FLOOR = 2.5
#: vertices; full mode yields 2**17 * 10.5 = 1,376,256 edges
FULL_VERTICES = 1 << 17
SMOKE_VERTICES = 1 << 12


def _scale() -> float:
    try:
        return max(0.01, float(os.environ.get("REPRO_BENCH_SCALE", "1")))
    except ValueError:
        return 1.0


def _ring_lattice(n: int) -> Graph:
    """Directed ring lattice: vertex ``u`` points at ``u+1 .. u+deg(u)``.

    ``deg(u) = BASE_DEGREE + fragment(u)``, so later contiguous ranges
    carry proportionally more edges — deliberate, measurable skew.
    Every edge is unique and endpoints are near-contiguous, so a
    contiguous-range partition keeps almost every edge internal —
    fragment compute dominates border sync, which is what this bench
    is designed to measure.
    """
    verts = np.arange(n, dtype=np.int64)
    degs = BASE_DEGREE + verts * NUM_FRAGMENTS // n
    src = np.repeat(verts, degs)
    starts = np.cumsum(degs) - degs
    offsets = np.arange(src.size, dtype=np.int64) - np.repeat(starts, degs) + 1
    dst = (src + offsets) % n
    return Graph(n, zip(src.tolist(), dst.tolist()), directed=True)


def _contiguous_partition(graph: Graph) -> HybridPartition:
    n = graph.num_vertices
    assignment = (np.arange(n, dtype=np.int64) * NUM_FRAGMENTS // n).tolist()
    return HybridPartition.from_vertex_assignment(graph, assignment, NUM_FRAGMENTS)


def _timed_run(partition, **params):
    start = time.perf_counter()
    result = get_algorithm("pr").run(partition, iterations=ITERATIONS, **params)
    return result, time.perf_counter() - start


def _skew_table(profile, stats) -> Dict:
    """Measured per-fragment wall shares vs. simulated per-worker op shares.

    Fragment f runs on worker f (one fragment per worker in the paper's
    model), so the two distributions are directly comparable; agreement
    says the simulated cost model and real execution skew the same way.
    """
    measured = stats["seconds_by_fragment"]
    ops = profile.comp_ops_by_worker
    total_wall = sum(measured.values()) or 1.0
    total_ops = sum(ops.values()) or 1.0
    rows = []
    for fid in sorted(set(measured) | set(ops)):
        rows.append(
            {
                "fragment": fid,
                "measured_wall_s": round(measured.get(fid, 0.0), 6),
                "measured_share": round(measured.get(fid, 0.0) / total_wall, 4),
                "simulated_ops": int(ops.get(fid, 0)),
                "simulated_share": round(ops.get(fid, 0) / total_ops, 4),
            }
        )
    m = np.array([r["measured_share"] for r in rows])
    s = np.array([r["simulated_share"] for r in rows])
    corr = float(np.corrcoef(m, s)[0, 1]) if m.size > 1 and m.std() and s.std() else None
    return {"rows": rows, "share_correlation": corr}


def run_bench(smoke: bool) -> Dict:
    n = SMOKE_VERTICES if smoke else int(FULL_VERTICES * _scale())
    graph = _ring_lattice(n)
    partition = _contiguous_partition(graph)

    sim_result, _ = _timed_run(partition)  # warm the FragmentPlan
    sim_payload = sim_result.profile.to_dict()
    _, sim_s = _timed_run(partition)

    report = {
        "mode": "smoke" if smoke else "full",
        "vertices": n,
        "edges": graph.num_edges,
        "fragments": NUM_FRAGMENTS,
        "iterations": ITERATIONS,
        "cpu_count": os.cpu_count(),
        "bench_scale": _scale() if not smoke else None,
        "simulated_wall_s": round(sim_s, 4),
        "shm": {},
    }

    leftovers_before = set(shm_mod.live_arena_names())
    for workers in WORKER_LADDER:
        shm_result, _ = _timed_run(
            partition, backend="shm", shm_workers=workers
        )  # warm the worker pool
        assert shm_result.values == sim_result.values, "shm diverged (values)"
        assert shm_result.profile.to_dict() == sim_payload, "shm diverged (profile)"
        _, shm_s = _timed_run(partition, backend="shm", shm_workers=workers)
        stats = last_shm_stats()
        report["shm"][str(workers)] = {
            "wall_s": round(shm_s, 4),
            "speedup": round(sim_s / shm_s, 2) if shm_s else float("inf"),
            "dispatches": stats["dispatches"],
            "skew": _skew_table(shm_result.profile, stats),
        }
    assert set(shm_mod.live_arena_names()) == leftovers_before, "leaked arena"
    return report


def check_acceptance(report: Dict) -> None:
    """Exactness always; the 2.5x bar only where 4 real cores exist."""
    if report["mode"] == "full" and (os.cpu_count() or 1) >= 4:
        speedup = report["shm"]["4"]["speedup"]
        assert speedup >= SPEEDUP_FLOOR, (
            f"shm@4 reached only {speedup:.2f}x "
            f"(floor {SPEEDUP_FLOOR}x on {report['edges']} edges)"
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny graph; exactness and hygiene checks only",
    )
    parser.add_argument("--out", default="BENCH_shm.json", help="output JSON path")
    args = parser.parse_args(argv)

    if not shm_available():
        print("shm backend unavailable on this platform; skipping", file=sys.stderr)
        return 0

    report = run_bench(args.smoke)
    check_acceptance(report)
    with open(args.out, "w", encoding="ascii") as fh:
        json.dump(report, fh, indent=2)

    print(
        f"PR x{ITERATIONS} on {report['edges']} edges "
        f"({report['fragments']} fragments, {report['cpu_count']} cpus): "
        f"simulated {report['simulated_wall_s']}s"
    )
    for workers, cell in report["shm"].items():
        corr = cell["skew"]["share_correlation"]
        corr_s = f"{corr:.3f}" if corr is not None else "n/a"
        print(
            f"  shm@{workers}: {cell['wall_s']}s ({cell['speedup']}x), "
            f"skew corr {corr_s}"
        )
    print(f"wrote {args.out}")
    return 0


# ----------------------------------------------------------------------
# pytest wrapper (the tier-1 suite does not collect benchmarks/; this
# runs under the bench harness)

try:
    import pytest
except ImportError:  # pragma: no cover - bench runs standalone
    pytest = None

if pytest is not None:

    @pytest.mark.skipif(
        not shm_available(), reason="POSIX shared-memory backend requires Linux"
    )
    def test_shm_backend_smoke():
        report = run_bench(smoke=True)
        check_acceptance(report)
        for cell in report["shm"].values():
            assert cell["wall_s"] > 0.0


if __name__ == "__main__":
    sys.exit(main())
