"""Paired parent/change runs of the pipeline benchmark, and the verdict.

    python3 benchmarks/pair_runs.py --parent DIR --change DIR \\
        --workload W [--pairs 10] [--seed 1] [--seconds T] [--scale X]

Runs ``benchmarks/pipeline/run.py`` of two checkouts alternately — the side
that goes first flips every pair, so drift of a shared host hits both — and
prints, per end-to-end metric of the change's ``BENCHMARK.json``, both
medians, both quartile pairs, wins / ties and a verdict by the rule the
benchmark's driver applies: a *gain* needs the change to win at least nine
tenths of the pairs (ties count for neither side) and the medians to differ
by more than the parent's own quartile distance (*better* below ten pairs);
a median worse than the bound is a *REGRESSION*; where the parent's own
spread is wider than the bound (or there are too few pairs to know it) the
metric is *unresolved*, unless every run of the change beats every run of
the parent.  Exits non-zero on a failed run or a regression.
``--parent X --change X`` is the self-vs-self smoke.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(checkout, workload, seed, seconds, scale):
    """One untraced run of ``checkout``'s benchmark: its metrics by name."""
    command = [sys.executable, os.path.join("benchmarks", "pipeline", "run.py"),
               "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
               "--scale", str(scale)]
    done = subprocess.run(command, cwd=checkout, capture_output=True, text=True,
                          timeout=600)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{checkout}: {' '.join(command)} exited "
                         f"{done.returncode}:\n{done.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{checkout}: {result['failed']} failed operations")
    return {name: m["value"] for name, m in result["metrics"].items()}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def verdict(parent, change, better, bound):
    """``(wins, ties, word)`` for one metric's paired samples."""
    sign = 1.0 if better == "lower" else -1.0
    pairs = len(parent)
    wins = sum(sign * c < sign * p for p, c in zip(parent, change))
    ties = sum(c == p for p, c in zip(parent, change))
    if ties == pairs:
        return wins, ties, "identical"
    p_med, c_med = statistics.median(parent), statistics.median(change)
    q1, q3 = quartiles(parent)
    scale = abs(p_med) or 1.0
    gain = sign * (p_med - c_med)  # > 0: the change reads better
    if wins >= 0.9 * pairs and gain > q3 - q1:
        # the rule asks for ten pairs; fewer can only hint
        return wins, ties, "gain" if pairs >= 10 else "better"
    # too few runs for quartiles, or a parent that disagrees with itself by
    # more than the bound: a median either side of it proves nothing
    noisy = pairs < 4 or (q3 - q1) / scale > bound
    if noisy and not all(sign * c < sign * p for p in parent for c in change):
        return wins, ties, "unresolved"
    return wins, ties, "REGRESSION" if -gain / scale > bound else "within bound"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="checkout of the parent commit")
    parser.add_argument("--change", required=True, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring window per run (default: run_seconds of "
                             "the change's BENCHMARK.json)")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="workload size multiplier, passed to run.py "
                             "(the driver measures at 1.0)")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    with open(os.path.join(args.change, "BENCHMARK.json"), encoding="ascii") as handle:
        spec = json.load(handle)
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds

    runs = {"parent": [], "change": []}
    checkouts = {"parent": args.parent, "change": args.change}
    for pair in range(args.pairs):
        for side in ("parent", "change") if pair % 2 == 0 else ("change", "parent"):
            runs[side].append(run_once(checkouts[side], args.workload, args.seed, seconds,
                                       args.scale))

    print(f"# {args.workload} seed={args.seed} pairs={args.pairs} seconds={seconds}"
          f" scale={args.scale}")
    print(f"{'metric':<18}{'parent med [q1, q3]':>34}{'change med [q1, q3]':>34}"
          f"{'change':>9}{'wins':>6}{'ties':>6}  verdict")
    regressed = False
    for metric in spec["end_to_end"]:
        name = metric["name"]
        parent = [run[name] for run in runs["parent"]]
        change = [run[name] for run in runs["change"]]
        wins, ties, word = verdict(parent, change, metric["better"], metric["bound"])
        regressed = regressed or word == "REGRESSION"
        cells = []
        for values in (parent, change):
            q1, q3 = quartiles(values)
            cells.append(f"{statistics.median(values):.4f} [{q1:.4f}, {q3:.4f}]")
        p_med, c_med = statistics.median(parent), statistics.median(change)
        moved = f"{(c_med - p_med) / p_med * 100:+.1f}%" if p_med else "n/a"
        print(f"{name:<18}{cells[0]:>34}{cells[1]:>34}{moved:>9}{wins:>6}{ties:>6}  {word}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
