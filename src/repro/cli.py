"""Command-line interface.

Six subcommands cover the library's pipeline without writing Python::

    python -m repro.cli generate  --kind powerlaw --vertices 2000 \\
        --degree 8 --out graph.txt
    python -m repro.cli partition --graph graph.txt --partitioner fennel \\
        --fragments 4 --refine pr --out part.json
    python -m repro.cli evaluate  --graph graph.txt --partition part.json \\
        --algorithms pr,wcc
    python -m repro.cli metrics   --graph graph.txt --partition part.json
    python -m repro.cli sweep     --quick --jobs 4 --only exp1,exp3
    python -m repro.cli cache     verify --repair

``partition --refine ALG`` runs the application-driven refiner for that
algorithm's cost model after the baseline; ``evaluate`` reports each
algorithm's simulated parallel runtime on the stored partition.

``evaluate`` can also degrade the simulated substrate as declared
(``--crash W:S``, ``--lose W:S``, ``--straggler W:F``) with superstep
checkpointing and rollback recovery (``--checkpoint-interval``); results
are unchanged, and the table gains failure/recovery/checkpoint columns.
``--lose`` removes a worker permanently: the cluster promotes surviving
replicas and continues on the survivors (failover columns appear).  The
flags are the whole fault record: the same flags give the same run.

``sweep`` reproduces the paper's evaluation section on the parallel
evaluation engine.  It *is* :mod:`repro.eval.run_all` — the subcommand
mounts that module's parser, so every ``run_all`` flag works here:
``--jobs N`` fans independent cells out over worker processes,
and ``--cache-dir``/``--no-cache`` control the content-addressed
artifact cache that later runs (and the benchmark scripts) replay from.

``cache verify`` audits an artifact cache root: every entry's checksum
envelope is validated, and with ``--repair`` damaged entries are moved
to the ``quarantine/`` sidecar (future sweeps recompute them) and
orphaned temp files from interrupted writes are deleted.

``partition --refine ALG --max-refine-seconds S`` runs the refiner
under a :mod:`repro.integrity` guard: it early-stops with the best
partition seen when the wall-clock budget runs out, and the result is
checked once after the pass.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, NoReturn, Optional

from repro.algorithms.registry import ALGORITHM_NAMES, get_algorithm
from repro.costmodel.trained import trained_cost_model
from repro.eval import run_all
from repro.eval.reporting import format_table
from repro.graph import generators
from repro.graph.io import read_edge_list, read_metis, write_edge_list
from repro.integrity.guard import GuardConfig
from repro.partition.quality import (
    cost_balance_factor,
    edge_balance_factor,
    edge_replication_ratio,
    vertex_balance_factor,
    vertex_replication_ratio,
)
from repro.partition.serialize import load_partition, save_partition
from repro.partition.validation import check_partition
from repro.partitioners.base import PARTITIONER_NAMES, get_partitioner
from repro.runtime.faults import (
    CrashFault,
    FaultPlan,
    PermanentLossFault,
    StragglerFault,
)
from repro.runtime.parallel import resolve_backend


def _load_graph(path: str):
    if path.endswith(".metis") or path.endswith(".graph"):
        return read_metis(path)
    return read_edge_list(path)


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------
def cmd_generate(args: argparse.Namespace) -> int:
    """``generate``: write a synthetic graph to an edge-list file."""
    kind = args.kind
    if kind == "powerlaw":
        graph = generators.chung_lu_power_law(
            args.vertices, args.degree, exponent=args.exponent,
            directed=not args.undirected, seed=args.seed,
        )
    elif kind == "er":
        graph = generators.erdos_renyi(
            args.vertices, int(args.vertices * args.degree),
            directed=not args.undirected, seed=args.seed,
        )
    elif kind == "rmat":
        scale = max(1, (args.vertices - 1).bit_length())
        graph = generators.rmat(
            scale, args.degree, directed=not args.undirected, seed=args.seed
        )
    elif kind == "grid":
        side = int(args.vertices ** 0.5)
        graph = generators.road_grid(side, side, seed=args.seed)
    elif kind == "smallworld":
        k = max(2, int(args.degree) // 2 * 2)
        graph = generators.small_world(args.vertices, k=k, seed=args.seed)
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(kind)
    write_edge_list(graph, args.out)
    print(f"wrote {graph} to {args.out}")
    return 0


def _usage_error(message) -> NoReturn:
    """Print one ``error:`` line and exit 2, as argparse does for a bad
    argument."""
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _build_guard_config(args: argparse.Namespace) -> Optional[GuardConfig]:
    """A GuardConfig for ``--max-refine-seconds`` (None if unused)."""
    if args.max_refine_seconds is None:
        return None
    try:
        return GuardConfig(max_seconds=args.max_refine_seconds)
    except ValueError as exc:
        _usage_error(exc)


def _load_cluster_spec_or_die(args: argparse.Namespace):
    """Load ``--cluster-spec`` (None when the flag is absent)."""
    path = getattr(args, "cluster_spec", None)
    if not path:
        return None
    from repro.runtime.clusterspec import ClusterSpec

    try:
        return ClusterSpec.load(path)
    except (OSError, ValueError) as exc:
        _usage_error(exc)


def cmd_partition(args: argparse.Namespace) -> int:
    """``partition``: cut a graph, optionally refine, save as JSON."""
    guard_config = _build_guard_config(args)
    if guard_config is not None and not args.refine:
        print(
            "error: --max-refine-seconds requires --refine (guards wrap "
            "the refiner)",
            file=sys.stderr,
        )
        return 2
    if args.out_graph and not args.apply_mutations:
        print(
            "error: --out-graph requires --apply-mutations",
            file=sys.stderr,
        )
        return 2
    cluster_spec = _load_cluster_spec_or_die(args)
    graph = _load_graph(args.graph)
    partitioner = get_partitioner(args.partitioner)
    partition = partitioner.partition(graph, args.fragments)
    label = args.partitioner
    stats = None
    refiner = None
    if args.refine:
        model = trained_cost_model(args.refine)
        from repro.core import refiner_class

        try:
            refiner_cls = refiner_class(partitioner.cut_type)
        except ValueError:
            print(
                f"error: cannot refine hybrid baseline {args.partitioner!r}",
                file=sys.stderr,
            )
            return 2
        refiner = refiner_cls(
            model, guard_config=guard_config, cluster_spec=cluster_spec
        )
        partition = refiner.refine(
            partition, in_place=True, capture_seed=bool(args.apply_mutations)
        )
        label += f" + {args.refine}-driven refinement"
        stats = refiner.last_stats
    if args.apply_mutations:
        from repro.core.incremental import MutationBatch, apply_mutations
        from repro.runtime.plan import plan_for, plan_stats

        try:
            batch = MutationBatch.from_file(args.apply_mutations)
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        dirty = apply_mutations(partition, batch)
        # Compile a plan against the updated graph so the maintenance
        # pass below exercises (and reports) the delta-patch path.
        plan_for(partition)
        plan_before = plan_stats().snapshot()
        if refiner is not None and dirty:
            partition = refiner.refine_incremental(partition, dirty)
            stats = refiner.last_stats
        plan_for(partition)
        plan_after = plan_stats().snapshot()
        recompiled, patched, revalidated = (
            a - b for a, b in zip(plan_after, plan_before)
        )
        summary = (
            f"incremental: {len(batch)} mutations, {len(dirty)} dirty "
            f"vertices (dirty-region); plans patched={patched} "
            f"recompiled={recompiled} revalidated={revalidated}"
        )
        if stats is not None:
            summary += f"; rescoring calls={stats.rescoring_calls}"
            if stats.incremental is not None:
                inc = stats.incremental
                summary += (
                    f" (frontier={inc.frontier}, fragments={inc.fragments}, "
                    f"seeded={'yes' if inc.seeded else 'no'})"
                )
        print(summary)
        label += " + mutation maintenance"
        if args.out_graph:
            write_edge_list(partition.graph, args.out_graph)
            print(f"wrote mutated {partition.graph} to {args.out_graph}")
    check_partition(partition)
    if stats is not None:
        c = stats.gain_cache
        print(
            f"gain cache: {c.hits} hits / {c.misses} misses "
            f"({c.hit_rate:.0%} hit rate), {c.invalidations} invalidations, "
            f"{c.evictions} evictions"
        )
    if stats is not None and stats.guard is not None:
        g = stats.guard
        print(
            f"guard: {g.steps} steps, {g.snapshots} snapshots, "
            f"{g.cost_model_interventions} cost-model interventions"
            + (", early-stopped" if g.early_stopped else "")
            + f" ({g.overhead_seconds * 1e3:.1f} ms overhead)"
        )
    save_partition(partition, args.out)
    print(
        f"wrote {args.fragments}-way partition ({label}) of {graph} to {args.out}"
    )
    return 0


def _parse_pair(spec: str, option: str, cast=int):
    """Parse a ``"A:B"`` CLI spec into a ``(int, cast)`` pair."""
    try:
        left, right = spec.split(":", 1)
        return int(left), cast(right)
    except ValueError:
        _usage_error(
            f"{option} expects WORKER:{'SUPERSTEP' if cast is int else 'FACTOR'},"
            f" got {spec!r}"
        )


def _build_fault_plan(args: argparse.Namespace):
    """Assemble a FaultPlan from evaluate's fault flags (None if unused)."""
    try:  # a bad coordinate or a contradictory plan is a one-line error
        plan = FaultPlan(
            crashes=[
                CrashFault(*_parse_pair(spec, "--crash"))
                for spec in args.crash or ()
            ],
            losses=[
                PermanentLossFault(*_parse_pair(spec, "--lose"))
                for spec in args.lose or ()
            ],
            stragglers=[
                StragglerFault(*_parse_pair(spec, "--straggler", float))
                for spec in args.straggler or ()
            ],
        )
    except ValueError as exc:
        _usage_error(exc)
    return None if plan.is_empty else plan


def cmd_evaluate(args: argparse.Namespace) -> int:
    """``evaluate``: simulated runtimes of algorithms on a stored partition."""
    if args.shm_workers is not None and args.backend != "shm":
        print("error: --shm-workers requires --backend shm", file=sys.stderr)
        return 2
    try:  # backend and fault flags are validated before heavy IO
        resolve_backend(args.backend, args.shm_workers)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    plan = _build_fault_plan(args)
    faulty = plan is not None or args.checkpoint_interval > 0
    cluster_spec = _load_cluster_spec_or_die(args)
    graph = _load_graph(args.graph)
    partition = load_partition(args.partition, graph)
    names = [n.strip() for n in args.algorithms.split(",") if n.strip()]
    profiler = None
    if args.profile:
        import cProfile

        profiler = cProfile.Profile()
    rows = []
    for name in names:
        algorithm = get_algorithm(name).configure_faults(
            plan, args.checkpoint_interval
        )
        try:
            if profiler is not None:
                profiler.enable()
            run_kwargs = {}
            if args.backend is not None:
                run_kwargs["backend"] = args.backend
                if args.shm_workers is not None:
                    run_kwargs["shm_workers"] = args.shm_workers
            try:
                result = algorithm.run(
                    partition,
                    cluster_spec=cluster_spec,
                    **run_kwargs,
                )
            finally:
                if profiler is not None:
                    profiler.disable()
        except ValueError as exc:
            # e.g. a crash naming a worker the partition doesn't have, or
            # an SSSP source that is not a vertex
            print(f"error: {exc}", file=sys.stderr)
            return 2
        row = [
            name.upper(),
            round(result.makespan * 1e3, 3),
            result.profile.num_supersteps,
            round(result.profile.total_ops),
            round(result.profile.total_bytes),
        ]
        if faulty:
            row += [
                result.profile.num_failures,
                round(result.profile.recovery_time * 1e3, 3),
                round(result.profile.checkpoint_bytes),
                result.profile.losses,
                round(result.profile.failover_time * 1e3, 3),
            ]
        rows.append(row)
    headers = ["algorithm", "simulated ms", "supersteps", "ops", "bytes"]
    if faulty:
        headers += ["failures", "recovery ms", "ckpt bytes", "losses", "failover ms"]
    print(format_table(headers, rows))
    if profiler is not None:
        profiler.dump_stats(args.profile)
        print(f"wrote cProfile stats to {args.profile}", file=sys.stderr)
    return 0


def cmd_cache(args: argparse.Namespace) -> int:
    """``cache``: audit (and optionally repair) an artifact cache root."""
    import os

    from repro.eval.engine import ArtifactCache

    if not os.path.isdir(args.cache_dir):
        print(f"error: no cache directory at {args.cache_dir!r}", file=sys.stderr)
        return 2
    cache = ArtifactCache(args.cache_dir)
    audit = cache.verify(repair=args.repair)
    rows = [
        ["scanned", audit.scanned],
        ["ok", audit.ok],
        ["corrupt", len(audit.corrupt)],
        ["quarantined", audit.quarantined],
        ["orphan temp files", len(audit.orphan_tmp)],
        ["temp files removed", audit.removed_tmp],
    ]
    print(format_table(["check", "count"], rows))
    for key in audit.corrupt:
        print(f"corrupt: {key}", file=sys.stderr)
    for path in audit.orphan_tmp:
        print(f"orphan: {path}", file=sys.stderr)
    if audit.healthy:
        print(f"cache {args.cache_dir} is healthy")
        return 0
    if args.repair:
        print(
            f"cache {args.cache_dir} repaired: damaged entries quarantined "
            "(they will be recomputed on the next sweep)"
        )
        return 0
    print(f"cache {args.cache_dir} has damaged entries (rerun with --repair)")
    return 1


def cmd_metrics(args: argparse.Namespace) -> int:
    """``metrics``: replication ratios and balance factors of a partition."""
    graph = _load_graph(args.graph)
    partition = load_partition(args.partition, graph)
    rows = [
        ["f_v", round(vertex_replication_ratio(partition), 3)],
        ["f_e", round(edge_replication_ratio(partition), 3)],
        ["lambda_v", round(vertex_balance_factor(partition), 3)],
        ["lambda_e", round(edge_balance_factor(partition), 3)],
    ]
    if args.cost_model:
        model = trained_cost_model(args.cost_model)
        rows.append(
            [f"lambda_{args.cost_model}", round(cost_balance_factor(partition, model), 3)]
        )
    print(format_table(["metric", "value"], rows))
    return 0


# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse tree for all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro", description="application-driven graph partitioning"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a synthetic graph")
    gen.add_argument(
        "--kind",
        choices=["powerlaw", "er", "rmat", "grid", "smallworld"],
        default="powerlaw",
    )
    gen.add_argument("--vertices", type=int, default=1000)
    gen.add_argument("--degree", type=float, default=8.0)
    gen.add_argument("--exponent", type=float, default=2.1)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--undirected", action="store_true")
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=cmd_generate)

    part = sub.add_parser("partition", help="partition (and refine) a graph")
    part.add_argument("--graph", required=True)
    part.add_argument(
        "--partitioner", default="fennel", choices=sorted(PARTITIONER_NAMES)
    )
    part.add_argument("--fragments", type=int, default=4)
    part.add_argument(
        "--refine",
        choices=sorted(ALGORITHM_NAMES),
        help="refine for this algorithm's cost model",
    )
    part.add_argument("--out", required=True)
    part.add_argument(
        "--apply-mutations",
        metavar="FILE",
        help="after partitioning, apply a mutation batch ('+ u v' insert, "
        "'- u v' delete, bare id = ensure vertex) and maintain the "
        "partition incrementally",
    )
    part.add_argument(
        "--out-graph",
        metavar="FILE",
        help="with --apply-mutations: also write the mutated graph, so "
        "evaluate/metrics can load the partition against it",
    )
    part.add_argument(
        "--cluster-spec",
        metavar="PATH",
        help="JSON cluster spec; the refiner balances capacity shares "
        "instead of raw cost (see examples/cluster_skewed.json)",
    )
    part.add_argument(
        "--max-refine-seconds",
        type=float,
        metavar="SECONDS",
        help="wall-clock refinement budget (requires --refine); early-stop "
        "with the best partition seen",
    )
    part.set_defaults(func=cmd_partition)

    ev = sub.add_parser("evaluate", help="run algorithms on a stored partition")
    ev.add_argument("--graph", required=True)
    ev.add_argument("--partition", required=True)
    ev.add_argument("--algorithms", default="pr,wcc,sssp")
    ev.add_argument(
        "--cluster-spec",
        metavar="PATH",
        help="JSON cluster spec; superstep times and transfer charges "
        "reflect the heterogeneous capacities",
    )
    ev.add_argument(
        "--backend",
        choices=["simulated", "shm"],
        default=None,
        help="execution backend: 'shm' runs fragment compute in shared-"
        "memory worker processes (results and simulated metrics are "
        "bit-identical to the default in-process 'simulated' backend)",
    )
    ev.add_argument(
        "--shm-workers",
        type=int,
        default=None,
        metavar="N",
        help="worker processes for --backend shm (default: min(4, cpus))",
    )
    ev.add_argument(
        "--profile",
        metavar="OUT.pstats",
        help="dump cProfile stats for the algorithm runs to this file",
    )
    faults = ev.add_argument_group(
        "fault injection", "degrade the simulated substrate as declared"
    )
    faults.add_argument(
        "--crash",
        action="append",
        metavar="WORKER:SUPERSTEP",
        help="crash a worker at a superstep (repeatable)",
    )
    faults.add_argument(
        "--lose",
        action="append",
        metavar="WORKER:SUPERSTEP",
        help="permanently lose a worker at a superstep; surviving "
        "replicas are promoted and the run continues degraded (repeatable)",
    )
    faults.add_argument(
        "--straggler",
        action="append",
        metavar="WORKER:FACTOR",
        help="slow a worker by a multiplier (repeatable)",
    )
    faults.add_argument(
        "--checkpoint-interval",
        type=int,
        default=0,
        help="supersteps between state checkpoints (0 = off)",
    )
    ev.set_defaults(func=cmd_evaluate)

    sweep = sub.add_parser(
        "sweep",
        help="run the paper's experiment sweep on the evaluation engine",
        parents=[run_all.build_parser(add_help=False)],
    )
    sweep.set_defaults(func=run_all.run)

    cache = sub.add_parser("cache", help="audit / repair an artifact cache")
    cache.add_argument(
        "action", choices=["verify"], help="verify: validate every artifact"
    )
    cache.add_argument(
        "--cache-dir",
        default=".repro-cache",
        metavar="DIR",
        help="artifact cache directory (default: .repro-cache)",
    )
    cache.add_argument(
        "--repair",
        action="store_true",
        help="quarantine damaged entries and delete orphaned temp files",
    )
    cache.set_defaults(func=cmd_cache)

    met = sub.add_parser("metrics", help="partition quality metrics")
    met.add_argument("--graph", required=True)
    met.add_argument("--partition", required=True)
    met.add_argument(
        "--cost-model",
        choices=sorted(ALGORITHM_NAMES),
        help="also report the cost balance factor for this algorithm",
    )
    met.set_defaults(func=cmd_metrics)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
