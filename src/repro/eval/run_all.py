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
``.repro-cache/``).  With ``--jobs N`` the independent cells are first
executed on a process pool (the *warm phase*), then the tables are
rendered serially from the cached artifacts — so the stdout tables are
byte-identical to a serial run, and a warm cache replays the whole sweep
(including measured wall-clock columns) without recomputing.

Diagnostics (cache hit/miss counters per experiment, warm-phase summary,
total wall time) go to stderr; stdout carries only the tables.

The warm phase is resilient (:mod:`repro.eval.engine.resilience`):
worker crashes and transient cell errors retry with seeded backoff,
``--job-timeout`` abandons (and hedges) stragglers, corrupt cache
artifacts are quarantined and recomputed, and repeatedly failing jobs
degrade to in-process execution.  A ``[resilience]`` stderr line reports
what happened whenever anything did.  The ``--chaos-*`` flags inject
deterministic failures (worker kills, hangs, artifact corruption) to
exercise those paths; the stdout tables stay byte-identical regardless.
By default only a job's first attempt can be sabotaged;
``--chaos-every-attempt`` exposes retries to chaos too (convergence is
then no longer guaranteed — pair it with low rates).  ``--trace-out``
records every fired chaos fate to a JSONL failure trace;
``--trace-in`` replays a recorded trace exactly, bypassing the rates
(see ``repro trace`` for show/replay/minimize tooling).

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

from repro.eval.engine import ArtifactCache, EvalEngine, Planner, use_engine
from repro.eval.experiments import appendix, exp1, exp2, exp3, exp4, exp5, exp6, hetero
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
# Planning: declare every cell a section will read (the warm phase
# executes them in parallel before the serial table rendering).
# ----------------------------------------------------------------------
def _plan_exp1(planner: Planner, cfg: dict) -> None:
    for algorithm, names in cfg["datasets"].items():
        for dataset in names:
            exp1.plan_figure9(planner, algorithm, dataset, cfg["ns"])
    exp1.plan_table3(planner)


def _plan_exp2(planner: Planner, cfg: dict) -> None:
    exp2.plan_table4(planner, num_fragments=cfg["table_n"])


def _plan_exp3(planner: Planner, cfg: dict) -> None:
    exp3.plan_figure9k(planner, fragment_counts=cfg["ns"])


def _plan_exp4(planner: Planner, cfg: dict) -> None:
    exp4.plan_figure10b(planner, num_fragments=cfg["table_n"])


def _plan_exp5(planner: Planner, cfg: dict) -> None:
    exp5.plan_figure9l(planner, factors=cfg["factors"])


def _plan_exp6(planner: Planner, cfg: dict) -> None:
    exp6.plan_table5(planner, num_graphs=cfg["num_graphs"])
    exp6.plan_reference_times(planner, cfg["reference_dataset"])


def _plan_appendix(planner: Planner, cfg: dict) -> None:
    for baseline in cfg["appendix_baselines"]:
        appendix.plan_phase_speedups(planner, baseline=baseline)


def _plan_hetero(planner: Planner, cfg: dict) -> None:
    hetero.plan_hetero(
        planner,
        num_fragments=cfg["hetero_n"],
        baselines=cfg["hetero_baselines"],
        algorithms=cfg["hetero_algorithms"],
    )


# ----------------------------------------------------------------------
# Rendering: compute-or-load through the engine and print the tables.
# ----------------------------------------------------------------------
def _render_exp1(cfg: dict) -> None:
    _banner("Exp-1: effectiveness (Fig. 9(a-j))")
    for algorithm, names in cfg["datasets"].items():
        for dataset in names:
            series = exp1.figure9_series(algorithm, dataset, cfg["ns"])
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
    print(format_table(exp1.table3_headers(), exp1.table3_rows()))


def _render_exp2(cfg: dict) -> None:
    _banner("Exp-2: composite effectiveness (Table 4 / Fig. 10(a))")
    data = exp2.table4(num_fragments=cfg["table_n"])
    baselines = list(data)
    print(format_table(exp2.table4_headers(baselines), exp2.table4_rows(data)))
    print("batch overhead of ParMHP vs ParHP:", {
        k: f"{v:.1%}" for k, v in exp2.composite_overhead(data).items()
    })


def _render_exp3(cfg: dict) -> None:
    _banner("Exp-3: refiner efficiency (Fig. 9(k))")
    eff = exp3.figure9k(fragment_counts=cfg["ns"])
    print(format_table(exp3.HEADERS, exp3.rows(eff)))


def _render_exp4(cfg: dict) -> None:
    _banner("Exp-4: composite efficiency (Fig. 10(b) + space)")
    comp = exp4.figure10b(num_fragments=cfg["table_n"])
    print(format_table(exp4.HEADERS, exp4.rows(comp)))


def _render_exp5(cfg: dict) -> None:
    _banner("Exp-5: scalability (Fig. 9(l))")
    scal = exp5.figure9l(factors=cfg["factors"])
    print(format_table(exp5.headers(scal), exp5.rows(scal)))


def _render_exp6(cfg: dict) -> None:
    _banner("Exp-6: cost model learning (Table 5)")
    print(format_table(exp6.HEADERS, exp6.table5_rows(num_graphs=cfg["num_graphs"])))
    reference_times = exp6.reference_times(cfg["reference_dataset"])
    print(
        "single-machine reference times (Gunrock substitute):",
        {k: f"{v:.2f}s" for k, v in reference_times.items()},
    )


def _render_appendix(cfg: dict) -> None:
    _banner("Appendix: phase decomposition (Fig. 11)")
    for baseline in cfg["appendix_baselines"]:
        decomposition = appendix.phase_speedups(baseline=baseline)
        print(f"\n[{'ParE2H' if baseline == 'xtrapulp' else 'ParV2H'} on {baseline}]")
        print(format_table(appendix.HEADERS, appendix.contribution_rows(decomposition)))


def _render_hetero(cfg: dict) -> None:
    _banner("Hetero: capacity-aware refinement on skewed clusters (§13)")
    data = hetero.hetero_table(
        num_fragments=cfg["hetero_n"],
        baselines=cfg["hetero_baselines"],
        algorithms=cfg["hetero_algorithms"],
    )
    print(format_table(hetero.HEADERS, hetero.rows(data)))
    print(
        "best blind/aware speedup per scenario:",
        {k: f"{v:.2f}x" for k, v in hetero.capacity_gains(data).items()},
    )


SECTIONS = {
    "exp1": (_plan_exp1, _render_exp1),
    "exp2": (_plan_exp2, _render_exp2),
    "exp3": (_plan_exp3, _render_exp3),
    "exp4": (_plan_exp4, _render_exp4),
    "exp5": (_plan_exp5, _render_exp5),
    "exp6": (_plan_exp6, _render_exp6),
    "appendix": (_plan_appendix, _render_appendix),
    "hetero": (_plan_hetero, _render_hetero),
}


def build_plan(selected, quick: bool) -> Planner:
    """The job graph covering every cell the selected sections read."""
    cfg = _sweep_config(quick)
    planner = Planner()
    for name in selected:
        SECTIONS[name][0](planner, cfg)
    return planner


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
    resilience_group = parser.add_argument_group(
        "resilience", "failure policy of the warm phase"
    )
    resilience_group.add_argument(
        "--job-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-job wall-clock deadline; overdue jobs are hedged/retried",
    )
    resilience_group.add_argument(
        "--max-attempts",
        type=int,
        default=3,
        metavar="N",
        help="pool attempts per job before in-process degradation (default: 3)",
    )
    resilience_group.add_argument(
        "--no-hedge",
        action="store_true",
        help="abandon overdue jobs instead of racing a duplicate attempt",
    )
    resilience_group.add_argument(
        "--no-validate",
        action="store_true",
        help="skip artifact checksum validation (overhead measurement only)",
    )
    chaos_group = parser.add_argument_group(
        "chaos injection", "deterministic failure injection (tests/benchmarks)"
    )
    chaos_group.add_argument(
        "--chaos-seed", type=int, default=0, help="seed for chaos fate draws"
    )
    chaos_group.add_argument(
        "--chaos-kill",
        type=float,
        default=0.0,
        metavar="RATE",
        help="probability a first attempt kills its worker process",
    )
    chaos_group.add_argument(
        "--chaos-hang",
        type=float,
        default=0.0,
        metavar="RATE",
        help="probability a first attempt hangs before computing",
    )
    chaos_group.add_argument(
        "--chaos-corrupt",
        type=float,
        default=0.0,
        metavar="RATE",
        help="probability a stored artifact is corrupted in place",
    )
    chaos_group.add_argument(
        "--chaos-torn",
        type=float,
        default=0.0,
        metavar="RATE",
        help="probability a stored artifact is truncated mid-JSON",
    )
    chaos_group.add_argument(
        "--chaos-hang-seconds",
        type=float,
        default=1.0,
        metavar="SECONDS",
        help="how long a hung job sleeps (default: 1.0)",
    )
    chaos_group.add_argument(
        "--chaos-every-attempt",
        action="store_true",
        help="let chaos sabotage retries too, not just attempt 0 "
        "(convergence is no longer guaranteed; pair with low rates)",
    )
    trace_group = parser.add_argument_group(
        "failure traces", "record/replay of fired chaos fates"
    ).add_mutually_exclusive_group()
    trace_group.add_argument(
        "--trace-out",
        metavar="PATH",
        help="record every fired chaos fate to a JSONL failure trace",
    )
    trace_group.add_argument(
        "--trace-in",
        metavar="PATH",
        help="replay the fates of a recorded failure trace "
        "(bypasses the --chaos-* rates)",
    )
    return parser


def _usage_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def run(args: argparse.Namespace, argv) -> int:
    """Run the sweep ``args`` (parsed by :func:`build_parser`) selects.

    ``argv`` is the token list ``args`` was parsed from; a recorded
    failure trace stores it so ``repro trace replay`` can re-run it.
    """
    if args.shm_workers is not None and args.backend != "shm":
        return _usage_error("--shm-workers requires --backend shm")

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
    jobs = max(1, args.jobs)
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

    from repro.eval.engine import EngineChaos, ResilienceConfig, RetryPolicy
    from repro.runtime.trace import FailureTrace

    trace = None
    if args.trace_in:
        loaded = FailureTrace.load(args.trace_in)
        engine_meta = loaded.meta.get("engine", {})
        chaos = EngineChaos(
            seed=args.chaos_seed,
            hang_seconds=float(
                engine_meta.get("hang_seconds", args.chaos_hang_seconds)
            ),
            scripted=loaded.engine_script(),
        )
    else:
        chaos = EngineChaos(
            seed=args.chaos_seed,
            kill_rate=args.chaos_kill,
            hang_rate=args.chaos_hang,
            corrupt_rate=args.chaos_corrupt,
            torn_rate=args.chaos_torn,
            hang_seconds=args.chaos_hang_seconds,
            first_attempt_only=not args.chaos_every_attempt,
        )
        if args.trace_out:
            trace = FailureTrace(
                meta={
                    "command": "run_all",
                    "argv": list(argv),
                    "engine": {"hang_seconds": args.chaos_hang_seconds},
                }
            )
    resilience = ResilienceConfig(
        retry=RetryPolicy(max_attempts=max(1, args.max_attempts), seed=args.chaos_seed),
        timeout=args.job_timeout,
        hedge=not args.no_hedge,
    )

    engine = EvalEngine(
        cache=ArtifactCache(cache_root, validate=not args.no_validate)
    )
    try:
        with use_engine(engine):
            # Chaos needs a warm phase to inject into, so a chaos-injected
            # serial run still warms first (the render replays artifacts).
            if jobs > 1 or not chaos.is_empty:
                planner = build_plan(selected, args.quick)
                report = engine.warm(
                    planner.graph,
                    jobs=jobs,
                    resilience=resilience,
                    chaos=chaos,
                    trace=trace,
                )
                print(
                    f"[warm] {report.total} cells: {report.computed} computed, "
                    f"{report.hits} from cache ({jobs} jobs)",
                    file=sys.stderr,
                )
                if report.resilience.total_events:
                    print(
                        f"[resilience] {report.resilience.describe()}",
                        file=sys.stderr,
                    )
            for name in selected:
                before = engine.stats.snapshot()
                SECTIONS[name][1](cfg)
                delta = engine.stats.delta(before)
                print(f"[cache] {name}: {delta.describe()}", file=sys.stderr)
    finally:
        if trace is not None:
            trace.save(args.trace_out)
            print(
                f"[trace] {len(trace)} fates recorded to {args.trace_out}",
                file=sys.stderr,
            )
        if ephemeral is not None:
            shutil.rmtree(ephemeral, ignore_errors=True)

    print(f"Total: {time.perf_counter() - start:.1f}s", file=sys.stderr)
    return 0


def main(argv=None) -> int:
    """Run every experiment; returns the process exit code."""
    argv = list(argv) if argv is not None else sys.argv[1:]
    return run(build_parser().parse_args(argv), argv)


if __name__ == "__main__":
    sys.exit(main())
