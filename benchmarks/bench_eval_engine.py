"""Evaluation-engine bench: parallel scheduling and warm-cache replay.

Times ``repro.eval.run_all --quick`` under the evaluation engine in
three configurations and emits ``BENCH_eval.json``:

* cold, serial (``--jobs 1``) in a fresh cache — the baseline;
* cold, parallel (``--jobs N``) in a second fresh cache — the
  process-pool speedup;
* warm replays of both caches — the content-addressed cache payoff.

Byte-identity is asserted before any number is reported: within each
workspace the warm replay must reproduce the cold run's stdout tables
exactly (measured wall-clock columns included — they are stored in the
artifacts and replayed, not re-measured).

Standalone usage (what a CI pipeline-bench step runs):

    PYTHONPATH=src python benchmarks/bench_eval_engine.py --smoke

``--smoke`` restricts the sweep to ``--only exp3,exp4`` and skips the
acceptance-bar assertions; the full bench asserts warm replay < 25% of
cold wall-clock always, and a >= 2x parallel speedup when the machine
actually has >= 4 cores.
"""

import argparse
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]

#: smoke subset: exp3 (partition -> refine wall-clock) and exp4
#: (composite refinement + space metrics) cover every cell kind the
#: engine caches except memo cells.
SMOKE_SECTIONS = "exp3,exp4"


def _run_sweep(cache_dir, jobs, sections=None):
    """One ``run_all --quick`` subprocess; returns (wall, stdout, stderr)."""
    cmd = [
        sys.executable,
        "-m",
        "repro.eval.run_all",
        "--quick",
        "--jobs",
        str(jobs),
        "--cache-dir",
        str(cache_dir),
    ]
    if sections:
        cmd += ["--only", sections]
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get(
        "PYTHONPATH", ""
    )
    start = time.perf_counter()
    proc = subprocess.run(
        cmd, capture_output=True, text=True, env=env, cwd=str(REPO_ROOT)
    )
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(
            f"run_all failed (jobs={jobs}):\n{proc.stderr[-2000:]}"
        )
    return wall, proc.stdout, proc.stderr


def _stderr_stats(stderr):
    """Aggregate the per-section ``[cache]`` counters and ``[warm]`` line."""
    hits = misses = 0
    for match in re.finditer(
        r"\[cache\] \w+: (\d+) hits / (\d+) misses", stderr
    ):
        hits += int(match.group(1))
        misses += int(match.group(2))
    stats = {"render_hits": hits, "render_misses": misses}
    warm = re.search(
        r"\[warm\] (\d+) cells: (\d+) computed, (\d+) from cache", stderr
    )
    if warm:
        stats["warm_cells"] = int(warm.group(1))
        stats["warm_computed"] = int(warm.group(2))
        stats["warm_from_cache"] = int(warm.group(3))
    return stats


def run_bench(jobs, sections=None):
    """Cold serial / cold parallel / warm replays; returns the report."""
    workspace = tempfile.mkdtemp(prefix="bench-eval-")
    try:
        serial_cache = os.path.join(workspace, "serial-cache")
        parallel_cache = os.path.join(workspace, "parallel-cache")

        cold_serial_s, cold_serial_out, cold_serial_err = _run_sweep(
            serial_cache, jobs=1, sections=sections
        )
        cold_parallel_s, cold_parallel_out, cold_parallel_err = _run_sweep(
            parallel_cache, jobs=jobs, sections=sections
        )
        warm_serial_s, warm_serial_out, warm_serial_err = _run_sweep(
            serial_cache, jobs=1, sections=sections
        )
        warm_parallel_s, warm_parallel_out, warm_parallel_err = _run_sweep(
            parallel_cache, jobs=jobs, sections=sections
        )

        return {
            "cpu_count": os.cpu_count(),
            "jobs": jobs,
            "sections": sections or "all",
            "serial_cold_s": cold_serial_s,
            "parallel_cold_s": cold_parallel_s,
            "warm_serial_s": warm_serial_s,
            "warm_parallel_s": warm_parallel_s,
            "speedup": cold_serial_s / cold_parallel_s,
            "warm_ratio": warm_serial_s / cold_serial_s,
            "stdout_identical_serial": cold_serial_out == warm_serial_out,
            "stdout_identical_parallel": (
                cold_parallel_out == warm_parallel_out
            ),
            "cold_serial": _stderr_stats(cold_serial_err),
            "cold_parallel": _stderr_stats(cold_parallel_err),
            "warm_serial": _stderr_stats(warm_serial_err),
            "warm_parallel": _stderr_stats(warm_parallel_err),
        }
    finally:
        shutil.rmtree(workspace, ignore_errors=True)


def check_report(report, smoke):
    """The bench's assertions: exactness always, speed where promised."""
    assert report["stdout_identical_serial"], (
        "warm serial replay changed the stdout tables"
    )
    assert report["stdout_identical_parallel"], (
        "warm parallel replay changed the stdout tables"
    )
    for phase in ("warm_serial", "warm_parallel"):
        assert report[phase]["render_misses"] == 0, (
            f"{phase} recomputed {report[phase]['render_misses']} cells"
        )
        assert report[phase]["render_hits"] > 0, f"{phase} saw no cache hits"
    if smoke:
        return
    assert report["warm_ratio"] < 0.25, (
        f"warm replay took {report['warm_ratio']:.0%} of the cold run "
        "(acceptance bar: < 25%)"
    )
    cores = report["cpu_count"] or 1
    if cores >= 4 and report["jobs"] >= 4:
        assert report["speedup"] >= 2.0, (
            f"--jobs {report['jobs']} speedup {report['speedup']:.2f}x on a "
            f"{cores}-core machine is below the 2x acceptance bar"
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help=f"--only {SMOKE_SECTIONS} and skip the acceptance-bar checks",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=min(4, os.cpu_count() or 1) if (os.cpu_count() or 1) >= 4 else 2,
        metavar="N",
        help="parallel worker count to benchmark (default: 4, or 2 on small machines)",
    )
    parser.add_argument("--out", default="BENCH_eval.json", help="output JSON path")
    args = parser.parse_args(argv)

    sections = SMOKE_SECTIONS if args.smoke else None
    report = run_bench(jobs=args.jobs, sections=sections)
    check_report(report, smoke=args.smoke)
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2)
    print(
        f"cold serial {report['serial_cold_s']:.1f}s, "
        f"cold --jobs {report['jobs']} {report['parallel_cold_s']:.1f}s "
        f"({report['speedup']:.2f}x), "
        f"warm replay {report['warm_serial_s']:.1f}s "
        f"({report['warm_ratio']:.0%} of cold)"
    )
    print(
        f"warm hits: serial {report['warm_serial']['render_hits']}, "
        f"parallel {report['warm_parallel']['render_hits']} "
        "(0 misses both); stdout byte-identical cold vs warm"
    )
    print(f"wrote {args.out}")
    return 0


def test_eval_engine(benchmark, print_section):
    """Pytest wrapper: smoke subset under the bench harness."""
    from benchmarks.conftest import run_once

    report = run_once(
        benchmark, lambda: run_bench(jobs=2, sections=SMOKE_SECTIONS)
    )
    check_report(report, smoke=True)
    print_section(
        "Extension: evaluation engine scheduling + warm-cache replay "
        f"(--only {SMOKE_SECTIONS})",
        json.dumps(
            {
                k: report[k]
                for k in (
                    "cpu_count",
                    "serial_cold_s",
                    "parallel_cold_s",
                    "warm_serial_s",
                    "speedup",
                    "warm_ratio",
                    "stdout_identical_serial",
                    "stdout_identical_parallel",
                )
            },
            indent=2,
        ),
    )


if __name__ == "__main__":
    sys.exit(main())
