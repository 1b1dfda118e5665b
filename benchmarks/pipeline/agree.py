"""Do two sets of runs of the same checkout agree within the benchmark's bounds?

    python3 benchmarks/pipeline/agree.py [--sets 2]

A *set* is what the benchmark's driver runs: every workload of
``BENCHMARK.json`` once per seed (seeds 1..10, untraced, ``run_seconds``
each) plus one traced run, through the declared command.  For each
workload x end-to-end metric it prints every set's median and quartile
spread (as a share of the median), the worst relative change of a later
set's median against an earlier one, and the bound.  Exits non-zero if a
spread or a change is outside its bound, if an exact metric differs at all
between sets, or if any run reports a failed operation.  Every run's
metrics are kept, stamped with git SHA, CPU count and library versions, in
``out/agree.json``; a copy of it committed as ``baselines/<cpu-count>c.json``
is a point of the benchmark's trajectory.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
#: the driver's ten seeds; every agree.json and baseline uses the same ones
SEEDS = tuple(range(1, 11))


def run_once(spec, workload, seed, trace):
    """One run through the declared command: its metrics by name.

    The result line carries the declared metrics; the listing above it adds
    the noise gauge of an untraced run (``bench.*``) and says which counters
    were missing (kept as ``None`` here, where the result line must read 0).
    """
    command = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", str(trace),
    ]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=180)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(command)} exited {done.returncode}:\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{' '.join(command)} reported {result['failed']} failures")
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    for line in lines[:-1]:
        fields = line.split()
        if len(fields) == 3 and fields[1] == "missing":
            metrics[fields[0]] = None
        elif len(fields) == 3 and fields[0].startswith("bench."):
            metrics.setdefault(fields[0], float(fields[1]))
    return metrics


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="ascii") as handle:
        spec = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sets", type=int, default=2)
    sets = parser.parse_args(argv).sets
    workloads = [w["name"] for w in spec["workloads"]]

    sys.path[:0] = [HERE, os.path.join(ROOT, "src")]
    from harness import EXACT_END_TO_END, EXACT_PER_LAYER
    from layers import versions

    sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                         text=True).stdout.strip()
    stamp = dict(versions(), git_sha=sha or "unknown", cpus=os.cpu_count(),
                 seeds=list(SEEDS), scale=1.0, seconds=spec["run_seconds"])

    # runs[set][workload] = list over seeds of {metric: value}; traced likewise
    runs, traced = [], []
    for index in range(sets):
        runs.append({})
        traced.append({})
        for workload in workloads:
            runs[index][workload] = [run_once(spec, workload, seed, 0) for seed in SEEDS]
            traced[index][workload] = run_once(spec, workload, SEEDS[0], 1)
            print(f"# set {index + 1}: {workload} done", flush=True)
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with open(os.path.join(HERE, "out", "agree.json"), "w", encoding="ascii") as handle:
        json.dump({"stamp": stamp, "runs": runs, "traced": traced}, handle, indent=1)

    bad = 0
    print(f"{'workload':<18}{'metric':<17}" + "".join(
        f"{'median' + str(i + 1):>12}{'spread' + str(i + 1):>9}" for i in range(sets)
    ) + f"{'change':>9}{'bound':>7}  verdict")
    for workload in workloads:
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            sign = 1.0 if metric["better"] == "lower" else -1.0
            values = [[r[name] for r in runs[i][workload]] for i in range(sets)]
            medians = [statistics.median(v) for v in values]
            spreads = [spread(v) for v in values]
            change = max(
                [sign * (medians[j] - medians[i]) / medians[i]
                 for i in range(sets) for j in range(i + 1, sets)],
                default=0.0,
            )
            problems = []
            if name != "setup_s" and max(spreads) > bound:
                problems.append("spread")
            if change > bound:
                problems.append("change")
            if name == EXACT_END_TO_END and any(v != values[0] for v in values[1:]):
                problems.append("not exact")
            bad += len(problems)
            print(f"{workload:<18}{name:<17}" + "".join(
                f"{m:>12.4f}{100 * s:>8.2f}%" for m, s in zip(medians, spreads)
            ) + f"{100 * change:>8.2f}%{100 * bound:>6.0f}%  "
                + (", ".join(problems) or "ok"))
        for name in EXACT_PER_LAYER:
            seen = [traced[i][workload][name] for i in range(sets)]
            if any(v != seen[0] for v in seen[1:]):
                bad += 1
                print(f"{workload:<18}{name}: exact counter differs between sets: {seen}")
    print(f"# {bad} problem(s)")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
