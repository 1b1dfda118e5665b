"""Failover bench: permanent-loss latency vs checkpoints and replication.

Loses one worker mid-run across every algorithm and emits
``BENCH_failover.json`` with two curve families:

* **checkpoint-interval curve** — the simulated failover charge
  (checkpoint restore + replayed supersteps + promotion + re-placement
  + routing rebuild) as the checkpoint cadence tightens.  Denser
  checkpoints replay fewer supersteps, so failover latency must be
  monotone: interval 1 never costs more than no checkpointing at all.
* **replication curve** — the same loss against baselines with
  increasing replication factors: more mirrors mean more promotions and
  fewer sole-copy re-placements, shrinking the bytes shipped to rebuild
  the dead worker's vertices.

Every cell asserts the degraded run's results are bit-identical to the
clean run — the failover protocol is accounting fiction, never allowed
to change algorithm output.  Wall-clock of the array-pass promotion
itself is also measured (it must stay well under the simulated charge's
significance: microseconds, not milliseconds).

Standalone usage (what CI's failover-smoke step runs):

    PYTHONPATH=src python benchmarks/bench_failover.py --smoke --out BENCH_failover.json

``--smoke`` shrinks the graph and restricts the algorithm set; the full
bench runs all five algorithms on a 2000-vertex power-law graph.
"""

import argparse
import json
import time

SMOKE_ALGORITHMS = ("pr", "wcc")
FULL_ALGORITHMS = ("pr", "wcc", "sssp", "cn", "tc")
CHECKPOINT_INTERVALS = (0, 1, 2, 4)
REPLICATION_BASELINES = ("fennel", "dbh", "hdrf")


def _partition(graph, baseline):
    from repro.partitioners.base import get_partitioner

    return get_partitioner(baseline).partition(graph, 4)


def _loss_plan(superstep=3):
    from repro.runtime.faults import FaultPlan, PermanentLossFault

    return FaultPlan(losses=(PermanentLossFault(worker=1, superstep=superstep),))


def run_bench(vertices, algorithms):
    from repro.algorithms.registry import get_algorithm
    from repro.eval.harness import algorithm_params
    from repro.graph.generators import chung_lu_power_law
    from repro.partition.quality import vertex_replication_ratio
    from repro.runtime.failover import FailoverState
    from repro.runtime.plan import plan_for

    graph = chung_lu_power_law(
        vertices, 6.0, exponent=2.1, directed=True, seed=7
    )
    report = {
        "vertices": vertices,
        "algorithms": list(algorithms),
        "checkpoint_curve": [],
        "replication_curve": [],
    }

    # --- failover latency vs checkpoint interval (fennel edge-cut) ----
    partition = _partition(graph, "fennel")
    plan = _loss_plan()
    for name in algorithms:
        params = algorithm_params(name, "")
        clean = get_algorithm(name).run(partition, **params)
        for interval in CHECKPOINT_INTERVALS:
            lossy = (
                get_algorithm(name)
                .configure_faults(plan, checkpoint_interval=interval)
                .run(partition, **params)
            )
            report["checkpoint_curve"].append(
                {
                    "algorithm": name,
                    "checkpoint_interval": interval,
                    "failover_ms": lossy.profile.failover_time * 1e3,
                    "makespan_ms": lossy.makespan * 1e3,
                    "clean_makespan_ms": clean.makespan * 1e3,
                    "promoted_masters": lossy.profile.promoted_masters,
                    "replaced_vertices": lossy.profile.replaced_vertices,
                    "bit_identical": lossy.values == clean.values,
                }
            )

    # --- failover shape vs replication factor (one loss, PageRank) ----
    for baseline in REPLICATION_BASELINES:
        part = _partition(graph, baseline)
        clean = get_algorithm("pr").run(part)
        lossy = (
            get_algorithm("pr")
            .configure_faults(_loss_plan(), checkpoint_interval=2)
            .run(part)
        )
        state = FailoverState(plan_for(part))
        start = time.perf_counter()
        decision = state.fail(1, [0, 2, 3])
        promote_wall = time.perf_counter() - start
        report["replication_curve"].append(
            {
                "baseline": baseline,
                "replication_factor": vertex_replication_ratio(part),
                "promoted_masters": lossy.profile.promoted_masters,
                "replaced_vertices": lossy.profile.replaced_vertices,
                "replacement_bytes": decision.replacement_bytes,
                "failover_ms": lossy.profile.failover_time * 1e3,
                "promotion_wall_us": promote_wall * 1e6,
                "bit_identical": lossy.values == clean.values,
            }
        )
    return report


def check_report(report):
    """The bench's assertions: bit-identity always, monotone restore."""
    for point in report["checkpoint_curve"] + report["replication_curve"]:
        assert point["bit_identical"], f"failover changed results: {point}"
    by_alg = {}
    for point in report["checkpoint_curve"]:
        by_alg.setdefault(point["algorithm"], {})[
            point["checkpoint_interval"]
        ] = point["failover_ms"]
    for name, curve in by_alg.items():
        assert curve[1] <= curve[0], (
            f"{name}: failover with checkpoints ({curve[1]:.3f} ms) costs "
            f"more than replaying from scratch ({curve[0]:.3f} ms)"
        )
    for point in report["replication_curve"]:
        assert point["failover_ms"] > 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small graph, pr+wcc only (CI smoke job)",
    )
    parser.add_argument(
        "--out", default="BENCH_failover.json", help="output JSON path"
    )
    args = parser.parse_args(argv)

    vertices = 400 if args.smoke else 2000
    algorithms = SMOKE_ALGORITHMS if args.smoke else FULL_ALGORITHMS
    report = run_bench(vertices, algorithms)
    check_report(report)
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2)
    for point in report["checkpoint_curve"]:
        print(
            f"{point['algorithm']} interval={point['checkpoint_interval']}: "
            f"failover {point['failover_ms']:.3f} ms "
            f"(makespan {point['makespan_ms']:.2f} vs clean "
            f"{point['clean_makespan_ms']:.2f} ms)"
        )
    for point in report["replication_curve"]:
        print(
            f"{point['baseline']} (f_v {point['replication_factor']:.2f}): "
            f"{point['promoted_masters']} promoted, "
            f"{point['replaced_vertices']} re-placed, "
            f"{point['replacement_bytes']:.0f} B shipped, "
            f"failover {point['failover_ms']:.3f} ms "
            f"(array pass {point['promotion_wall_us']:.0f} us)"
        )
    print(f"wrote {args.out}")
    return 0


def test_failover(benchmark, print_section):
    """Pytest wrapper: smoke subset under the bench harness."""
    from benchmarks.conftest import run_once

    report = run_once(
        benchmark, lambda: run_bench(400, SMOKE_ALGORITHMS)
    )
    check_report(report)
    print_section(
        "Extension: permanent worker-loss failover "
        "(latency vs checkpoints and replication)",
        json.dumps(report["replication_curve"], indent=2),
    )


if __name__ == "__main__":
    import sys

    sys.exit(main())
