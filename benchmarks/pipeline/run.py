"""Pipeline benchmark: one workload, one seed, every metric by name and unit.

    python3 benchmarks/pipeline/run.py --workload W --seed S \\
        [--seconds T] [--scale X] [--trace 0|1]

Drives the library's public verbs from outside (see ``layers.py``), times
each call, verifies every output, and prints as its last line one JSON
object ``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics of ``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics
with ``--trace 1``.  Exits non-zero if any operation or check failed.
"""

import argparse
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=26.0,
                        help="length of the measuring window (reps stop when it is used up)")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="input size multiplier; 2 / 6 on powerlaw-ecut-pr "
                             "are the ROADMAP 20k / 60k points")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--out", default=os.path.join(HERE, "out"),
                        help="directory for generated inputs and the trace file")
    args = parser.parse_args(argv)

    start = time.perf_counter()
    import harness  # pulls in numpy and repro: the import share of setup_s
    from workloads import WORKLOADS
    imports_s = time.perf_counter() - start

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    m = harness.measure(workload, args.seed, args.scale, args.seconds,
                        bool(args.trace), args.out, imports_s)

    print(f"# {workload.name} seed={args.seed} scale={args.scale} reps={m.reps} "
          f"trace={args.trace}")
    print("\n".join(harness.stage_table(m.recorder)))
    if args.trace:
        metrics = harness.per_layer(m)
        path = os.path.join(args.out, f"trace-{workload.name}.json")
        harness.write_trace(m, path, {"workload": workload.name, "seed": args.seed,
                                      "scale": args.scale})
        print(f"# trace written to {os.path.relpath(path)}")
        gauge = {}
    else:
        metrics = harness.end_to_end(m)
        gauge = harness.noise_gauge(m)  # every run carries its noise gauge
    for name, (value, unit) in {**metrics, **gauge}.items():
        shown = "missing" if value is None else f"{value:.6f}"
        print(f"{name:<34}{shown:>18} {unit}")
    for failure in m.checks.failures:
        print(f"FAILED: {failure}")
    failed = len(m.checks.failures)
    # the result line carries a number for every declared metric: a counter the
    # library does not expose reads 0 there and is counted in bench.counters_missing
    print(json.dumps({
        "correct": failed == 0,
        "attempted": m.checks.attempted,
        "failed": failed,
        "metrics": {k: {"value": 0.0 if v is None else v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
