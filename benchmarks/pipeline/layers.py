"""The library surface the pipeline benchmark pins, one function per call.

This is the only file under ``benchmarks/pipeline/`` that imports
``repro``.  Each function is one public verb of one layer
(``src/repro/<layer>``); the runner times these calls from outside and
never reaches past them.  Counter readers at the bottom go through
``getattr`` with a ``None`` default: a counter the library stops exposing
is reported as missing by the runner instead of failing the run.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms import get_algorithm
from repro.algorithms import reference as _reference
from repro.core import E2H, ME2H, V2H, MutationBatch
from repro.core import apply_mutations as _apply_mutations
from repro.costmodel import builtin_cost_model
from repro.costmodel.trained import train_models
from repro.graph import chung_lu_power_law, read_edge_list, road_grid, write_edge_list
from repro.partition import (
    check_partition,
    load_partition,
    save_partition,
    vertex_replication_ratio,
)
from repro.partition.validation import PartitionInvariantError
from repro.partitioners import get_partitioner
from repro.runtime.plan import FragmentPlan, plan_for, plan_stats


def versions() -> dict:
    """Library versions stamped on a committed baseline."""
    import platform

    return {"python": platform.python_version(), "numpy": np.__version__}


# ---------------------------------------------------------------- graph
def generate_powerlaw(num_vertices: int, directed: bool, seed: int):
    return chung_lu_power_law(
        num_vertices, 8.0, exponent=2.1, directed=directed, seed=seed
    )


def generate_road(side: int, seed: int):
    return road_grid(side, side, diagonal_prob=0.1, seed=seed)


def write_graph(graph, path: str) -> None:
    write_edge_list(graph, path)


def read_graph(path: str):
    return read_edge_list(path)


def edge_list(graph) -> list:
    return sorted(graph.edges())


def num_edges(graph) -> int:
    return graph.num_edges


# --------------------------------------------------------- partitioners
def partition(graph, name: str, num_fragments: int):
    return get_partitioner(name).partition(graph, num_fragments)


def replication_ratio(part) -> float:
    return vertex_replication_ratio(part)


# ------------------------------------------------------------ costmodel
def train(algorithms) -> dict:
    """Paper step 1: learn (h_A, g_A) from instrumented simulator runs."""
    return train_models(list(algorithms))


def pinned_model(algorithm: str):
    """The Table-5 model the goldens use; keeps refinement seed-stable."""
    return builtin_cost_model(algorithm)


def model_cost(model, part) -> float:
    return model.parallel_cost(part)


# ----------------------------------------------------------------- core
def e2h(algorithm: str):
    return E2H(pinned_model(algorithm))


def v2h(algorithm: str):
    return V2H(pinned_model(algorithm))


def me2h(algorithms):
    return ME2H({name: pinned_model(name) for name in algorithms})


def refine(refiner, part, capture_seed: bool = False):
    return refiner.refine(part, in_place=True, capture_seed=capture_seed)


def refine_composite(refiner, part):
    return refiner.refine(part)


def composite_part(composite, algorithm: str):
    return composite.partition_for(algorithm)


def parse_mutations(text: str):
    return MutationBatch.parse(text)


def apply_mutations(part, batch):
    return _apply_mutations(part, batch)


def refine_incremental(refiner, part, dirty):
    return refiner.refine_incremental(part, dirty)


# ------------------------------------------------------------ partition
def is_valid(part) -> bool:
    try:
        check_partition(part)
    except PartitionInvariantError:
        return False
    return True


def copies(parts) -> int:
    return sum(part.total_vertex_copies() for part in parts)


def roundtrip(part, path: str):
    save_partition(part, path)
    return load_partition(path, part.graph)


# -------------------------------------------------------------- runtime
def plan(part, incremental: bool = True):
    return plan_for(part, incremental=incremental)


def patched_plan_matches_fresh_compile(part) -> bool:
    """The cached (patched) plan's routing arrays equal a fresh compile."""
    cached = plan_for(part)
    fresh = FragmentPlan(part)
    names = ("master_of", "rep_count", "border_mask", "place_indptr", "place_fids")
    same = all(
        np.array_equal(getattr(cached, n), getattr(fresh, n))
        and getattr(cached, n).dtype == getattr(fresh, n).dtype
        for n in names
    ) and np.array_equal(cached.home_of(), fresh.home_of())
    for fid in range(part.num_fragments):
        same = (
            same
            and np.array_equal(cached.verts(fid), fresh.verts(fid))
            and np.array_equal(cached.roles(fid), fresh.roles(fid))
            and cached.edge_list(fid) == fresh.edge_list(fid)
        )
    return bool(same)


# ----------------------------------------------------------- algorithms
def run(algorithm: str, part, **params):
    return get_algorithm(algorithm).run(part, **params)


def reference(algorithm: str, graph, **params):
    fn = {
        "pr": _reference.reference_pagerank,
        "wcc": _reference.reference_wcc,
        "sssp": _reference.reference_sssp,
        "tc": _reference.reference_triangle_count,
    }[algorithm]
    return fn(graph, **params)


# ------------------------------------------------- counters (defensive)
def _get(obj, *path):
    for name in path:
        obj = getattr(obj, name, None)
        if obj is None:
            return None
    return obj


def _total(objs, names):
    """Sum of the named counters that exist on ``objs``; None when none do."""
    found = [v for o in objs for v in (_get(o, n) for n in names) if v is not None]
    return sum(found) if found else None


_MOVES = ("emigrated", "split_edges", "vmigrated", "vmerged", "master_moves",
          "vassign_units", "eassign_units")


def refine_counters(refiner) -> dict:
    """Counters of the refiner's last pass, read off ``last_stats``."""
    stats = _get(refiner, "last_stats")
    memo = _get(stats, "gain_cache")
    memos = list(memo.values()) if isinstance(memo, dict) else [memo]
    return {
        "rescoring_calls": _get(stats, "rescoring_calls"),
        "memo_hits": _total(memos, ("hits",)),
        "memo_misses": _total(memos, ("misses",)),
        "moves": _total([stats], _MOVES),
        "cost_before": _get(stats, "cost_before"),
        "cost_after": _get(stats, "cost_after"),
        "frontier": _get(stats, "incremental", "frontier"),
    }


def plan_counters() -> tuple:
    """Process-wide (recompiled, patched) plan counts so far."""
    stats = plan_stats()
    return (_get(stats, "recompiled"), _get(stats, "patched"))


def run_counters(result) -> dict:
    """Simulated-clock facts of one algorithm run."""
    profile = _get(result, "profile")
    ops = _get(profile, "comp_ops_by_worker")
    return {
        "makespan_s": _get(result, "makespan"),
        "supersteps": _get(profile, "num_supersteps"),
        "comm_bytes": _get(profile, "total_bytes"),
        "worker_ops": dict(ops) if ops is not None else None,
    }
