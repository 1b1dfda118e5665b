"""Run every experiment and print paper-style tables.

Usage::

    python -m repro.eval.run_all                 # full sweep (serial)
    python -m repro.eval.run_all --quick         # reduced sweep
    python -m repro.eval.run_all --quick --jobs 4
    python -m repro.eval.run_all --only exp1,exp3
    python -m repro.eval.run_all --no-cache

The sweep runs on the evaluation engine (:mod:`repro.eval.engine`):
every experiment cell — initial partition, refinement, simulated run,
composite refinement, model training — is keyed by a canonical config
digest and stored in a content-addressed cache (``--cache-dir``, default
``.repro-cache/``).  Each section is one callable that walks its
experiments' traversals: with ``--jobs N`` it is first walked over the
planner, and the cells it declares are executed on a process pool (the
*warm phase*); then it is walked over a reader and the tables are
rendered serially from the cached artifacts — so the render reads
exactly the planned cells, the stdout tables are byte-identical to a
serial run, and a warm cache replays the whole sweep (including
measured wall-clock columns) without recomputing.

Diagnostics (cache hit/miss counters per experiment, warm-phase summary,
total wall time) go to stderr; stdout carries only the tables.

A damaged cache artifact is quarantined and recomputed where it is
read; if the warm phase's process pool breaks, the rest of the graph is
computed in-process.  A cell that raises ends the sweep with its
traceback.

The benchmarks under ``benchmarks/`` invoke the same experiment modules
one table/figure at a time; this script is the one-shot reproduction of
the whole evaluation section, and is what EXPERIMENTS.md's measured
numbers come from.
"""

from __future__ import annotations

import argparse
import shutil
import sys
import tempfile
import time
from typing import Callable

from repro.eval.engine import ArtifactCache, EvalEngine, Planner, use_engine
from repro.eval.experiments import appendix, exp1, exp2, exp3, exp4, exp5, exp6, hetero
from repro.eval.harness import Reader
from repro.eval.reporting import format_table, series_block

#: default on-disk artifact cache, shared with the benchmark scripts
DEFAULT_CACHE_DIR = ".repro-cache"

SECTION_NAMES = ("exp1", "exp2", "exp3", "exp4", "exp5", "exp6", "appendix", "hetero")


def _banner(title: str) -> None:
    print()
    print("=" * 78)
    print(title)
    print("=" * 78)


def _sweep_config(quick: bool) -> dict:
    """Shared sweep parameters for planning and rendering."""
    return {
        "ns": (4,) if quick else (2, 4, 8),
        "datasets": {
            "cn": ["twitter_like"] if quick else ["livejournal_like", "twitter_like"],
            "tc": ["livejournal_like"]
            if quick
            else ["livejournal_like", "twitter_like"],
            "wcc": ["twitter_like"] if quick else ["twitter_like", "ukweb_like"],
            "pr": ["twitter_like"] if quick else ["twitter_like", "ukweb_like"],
            "sssp": ["twitter_like"]
            if quick
            else ["twitter_like", "ukweb_like", "traffic_like"],
        },
        "table_n": 4 if quick else 8,
        "factors": (1, 2) if quick else (1, 2, 3, 4, 5),
        "num_graphs": 3 if quick else 6,
        "reference_dataset": "livejournal_like",
        "appendix_baselines": ("xtrapulp", "grid"),
        "hetero_n": 4,
        "hetero_baselines": ("xtrapulp", "ne"),
        "hetero_algorithms": ("pr",) if quick else ("pr", "wcc", "sssp"),
    }


# ----------------------------------------------------------------------
# Sections.  Each walks its experiments' traversals over ``source`` and
# returns the function that prints their tables.  Walked over the planner
# it declares every cell the warm phase executes (the printer is
# dropped); walked over a reader it reads the same cells and prints.
# ----------------------------------------------------------------------
def _exp1(source, cfg: dict) -> Callable[[], None]:
    panels = [
        (algorithm, dataset, exp1.figure9_cells(source, algorithm, dataset, cfg["ns"]))
        for algorithm, names in cfg["datasets"].items()
        for dataset in names
    ]
    table3 = exp1.table3_cells(source)

    def show() -> None:
        _banner("Exp-1: effectiveness (Fig. 9(a-j))")
        for algorithm, dataset, series in panels:
            print()
            print(
                series_block(
                    f"[{algorithm.upper()} on {dataset}] simulated seconds",
                    "n",
                    series,
                )
            )
            print("avg speedups:", exp1.speedups(series))

        _banner("Table 3: partition metrics (twitter_like, n=8)")
        print(format_table(exp1.table3_headers(), table3))

    return show


def _exp2(source, cfg: dict) -> Callable[[], None]:
    data = exp2.table4_cells(source, num_fragments=cfg["table_n"])

    def show() -> None:
        _banner("Exp-2: composite effectiveness (Table 4 / Fig. 10(a))")
        baselines = list(data)
        print(format_table(exp2.table4_headers(baselines), exp2.table4_rows(data)))
        print("batch overhead of ParMHP vs ParHP:", {
            k: f"{v:.1%}" for k, v in exp2.composite_overhead(data).items()
        })

    return show


def _exp3(source, cfg: dict) -> Callable[[], None]:
    eff = exp3.figure9k_cells(source, fragment_counts=cfg["ns"])

    def show() -> None:
        _banner("Exp-3: refiner efficiency (Fig. 9(k))")
        print(format_table(exp3.HEADERS, exp3.rows(eff)))

    return show


def _exp4(source, cfg: dict) -> Callable[[], None]:
    comp = exp4.figure10b_cells(source, num_fragments=cfg["table_n"])

    def show() -> None:
        _banner("Exp-4: composite efficiency (Fig. 10(b) + space)")
        print(format_table(exp4.HEADERS, exp4.rows(comp)))

    return show


def _exp5(source, cfg: dict) -> Callable[[], None]:
    scal = exp5.figure9l_cells(source, factors=cfg["factors"])

    def show() -> None:
        _banner("Exp-5: scalability (Fig. 9(l))")
        print(format_table(exp5.headers(scal), exp5.rows(scal)))

    return show


def _exp6(source, cfg: dict) -> Callable[[], None]:
    table5 = exp6.table5_cells(source, num_graphs=cfg["num_graphs"])
    reference_times = exp6.reference_times_cells(source, cfg["reference_dataset"])

    def show() -> None:
        _banner("Exp-6: cost model learning (Table 5)")
        print(format_table(exp6.HEADERS, table5))
        print(
            "single-machine reference times (Gunrock substitute):",
            {k: f"{v:.2f}s" for k, v in reference_times.items()},
        )

    return show


def _appendix(source, cfg: dict) -> Callable[[], None]:
    decompositions = {
        baseline: appendix.phase_cells(source, baseline=baseline)
        for baseline in cfg["appendix_baselines"]
    }

    def show() -> None:
        _banner("Appendix: phase decomposition (Fig. 11)")
        for baseline, decomposition in decompositions.items():
            print(f"\n[{'ParE2H' if baseline == 'xtrapulp' else 'ParV2H'} on {baseline}]")
            print(format_table(appendix.HEADERS, appendix.contribution_rows(decomposition)))

    return show


def _hetero(source, cfg: dict) -> Callable[[], None]:
    data = hetero.hetero_cells(
        source,
        num_fragments=cfg["hetero_n"],
        baselines=cfg["hetero_baselines"],
        algorithms=cfg["hetero_algorithms"],
    )

    def show() -> None:
        _banner("Hetero: capacity-aware refinement on skewed clusters (§13)")
        print(format_table(hetero.HEADERS, hetero.rows(data)))
        print(
            "best blind/aware speedup per scenario:",
            {k: f"{v:.2f}x" for k, v in hetero.capacity_gains(data).items()},
        )

    return show


SECTIONS = {
    "exp1": _exp1,
    "exp2": _exp2,
    "exp3": _exp3,
    "exp4": _exp4,
    "exp5": _exp5,
    "exp6": _exp6,
    "appendix": _appendix,
    "hetero": _hetero,
}


def _parse_only(spec: str):
    """``--only`` value -> selected section names, in canonical order."""
    names = [token.strip() for token in spec.split(",") if token.strip()]
    unknown = [name for name in names if name not in SECTIONS]
    if unknown or not names:
        problem = (
            f"unknown experiment(s) {', '.join(unknown)}"
            if unknown
            else "no experiment named"
        )
        raise argparse.ArgumentTypeError(
            f"{problem}; choose from {', '.join(SECTION_NAMES)}"
        )
    return [name for name in SECTION_NAMES if name in names]


def build_parser(add_help: bool = True) -> argparse.ArgumentParser:
    """The sweep's argument parser (``repro sweep`` mounts it as a parent)."""
    parser = argparse.ArgumentParser(description=__doc__, add_help=add_help)
    parser.add_argument("--quick", action="store_true", help="reduced sweep")
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for the warm phase (default: 1, serial)",
    )
    parser.add_argument(
        "--cache-dir",
        default=DEFAULT_CACHE_DIR,
        metavar="DIR",
        help=f"artifact cache directory (default: {DEFAULT_CACHE_DIR})",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="use an ephemeral cache deleted after the run",
    )
    parser.add_argument(
        "--only",
        type=_parse_only,
        default=list(SECTION_NAMES),
        metavar="NAMES",
        help=f"comma-separated subset of {','.join(SECTION_NAMES)}",
    )
    parser.add_argument(
        "--cluster-spec",
        metavar="PATH",
        help="JSON cluster spec (per-worker speeds/bandwidths); refiners "
        "and the simulator charge heterogeneous capacities everywhere",
    )
    parser.add_argument(
        "--backend",
        choices=["simulated", "shm"],
        default=None,
        help="execution backend for algorithm runs: 'shm' uses shared-"
        "memory worker processes (simulated metrics stay bit-identical)",
    )
    parser.add_argument(
        "--shm-workers",
        type=int,
        default=None,
        metavar="N",
        help="worker processes for --backend shm (default: min(4, cpus))",
    )
    return parser


def _usage_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def run(args: argparse.Namespace) -> int:
    """Run the sweep ``args`` (parsed by :func:`build_parser`) selects."""
    if args.shm_workers is not None and args.backend != "shm":
        return _usage_error("--shm-workers requires --backend shm")
    if args.jobs < 1:
        return _usage_error(f"jobs must be a positive integer, got {args.jobs}")

    if args.cluster_spec:
        # Flip the default before planning: planned cells record the spec
        # payload, so spawn workers rebuild the identical heterogeneous
        # cluster.
        from repro.runtime.clusterspec import ClusterSpec, set_cluster_spec_default

        try:
            set_cluster_spec_default(ClusterSpec.load(args.cluster_spec))
        except (OSError, ValueError) as exc:
            return _usage_error(str(exc))

    if args.backend:
        # Same pattern again: planned run cells fold the non-default
        # backend, so spawn workers execute over shared memory too.
        from repro.runtime.parallel import set_backend_default

        try:
            set_backend_default(args.backend, args.shm_workers)
        except (ValueError, RuntimeError) as exc:
            return _usage_error(str(exc))

    selected = args.only
    jobs = args.jobs
    cfg = _sweep_config(args.quick)
    start = time.perf_counter()

    # --no-cache still uses a (throwaway) disk cache: worker processes
    # exchange artifacts through it, and cold-path object construction is
    # identical either way.
    ephemeral = None
    cache_root = args.cache_dir
    if args.no_cache:
        ephemeral = tempfile.mkdtemp(prefix="repro-cache-")
        cache_root = ephemeral

    engine = EvalEngine(cache=ArtifactCache(cache_root))
    try:
        with use_engine(engine):
            if jobs > 1:
                planner = Planner()
                for name in selected:
                    SECTIONS[name](planner, cfg)
                report = engine.warm(planner.graph, jobs=jobs)
                recovered = ""
                if report.quarantined:
                    recovered += f", {report.quarantined} quarantined"
                if report.worker_crashes:
                    recovered += ", pool broke: finished in-process"
                print(
                    f"[warm] {report.total} cells: {report.computed} computed, "
                    f"{report.hits} from cache ({jobs} jobs){recovered}",
                    file=sys.stderr,
                )
            for name in selected:
                before = engine.stats.snapshot()
                SECTIONS[name](Reader(), cfg)()
                delta = engine.stats.delta(before)
                print(f"[cache] {name}: {delta.describe()}", file=sys.stderr)
    finally:
        if ephemeral is not None:
            shutil.rmtree(ephemeral, ignore_errors=True)

    print(f"Total: {time.perf_counter() - start:.1f}s", file=sys.stderr)
    return 0


def main(argv=None) -> int:
    """Run every experiment; returns the process exit code."""
    return run(build_parser().parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
