"""Cell computations: the unit work items of the evaluation engine.

A *cell* is one cacheable step of the evaluation pipeline:

========== ==========================================================
kind       artifact
========== ==========================================================
partition  baseline partition of (graph, partitioner, n) + seconds
refine     ParE2H / ParV2H refinement of a partition for one model
incremental mutation batch + dirty-region re-refinement (DESIGN §15)
run        simulated execution of one algorithm over one partition
composite  ParME2H / ParMV2H composite refinement over a batch
memo       any JSON-serializable computation (Exp-6 training tables)
========== ==========================================================

Every function here takes plain JSON-serializable specs (plus the graph
object) and returns a JSON-serializable payload, so the same code runs
in-process for cache misses and inside spawn-safe worker processes for
the parallel warm phase.  Cost models travel *by value* (their exact
polynomial coefficients) so every process refines bit-identically.

``virtual`` replaces measured wall-clock seconds with deterministic
proxies (the simulated refinement time; graph size for partitioners) —
used by golden tests to pin the otherwise non-deterministic Exp-3/Exp-5
columns.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.eval.engine.keys import payload_digest


def model_from_payload(payload: Dict):
    """Rebuild the exact :class:`CostModel` serialized by ``model_payload``."""
    from repro.costmodel.model import CostModel
    from repro.costmodel.polynomial import PolynomialCostFunction

    return CostModel(
        payload["name"],
        PolynomialCostFunction.from_dict(payload["h"]),
        PolynomialCostFunction.from_dict(payload["g"]),
        tuple(payload["gate"]) if payload.get("gate") else None,
    )


def profile_to_payload(profile) -> Dict:
    """Serialize the :class:`RefinementProfile` fields the experiments read."""
    return {
        "phase_times": dict(profile.phase_times),
        "phase_supersteps": dict(profile.phase_supersteps),
        "total_time": profile.total_time,
        "wall_seconds": profile.wall_seconds,
    }


def profile_from_payload(payload: Dict):
    """Rebuild a :class:`RefinementProfile` (without per-run refiner stats)."""
    from repro.core.parallel import RefinementProfile

    return RefinementProfile(
        phase_times=dict(payload["phase_times"]),
        phase_supersteps={k: int(v) for k, v in payload["phase_supersteps"].items()},
        total_time=float(payload["total_time"]),
        wall_seconds=float(payload["wall_seconds"]),
    )


def _virtual_partition_seconds(graph) -> float:
    """Deterministic stand-in for partitioner wall-clock: graph size scaled."""
    return (graph.num_vertices + graph.num_edges) * 1e-6


# ----------------------------------------------------------------------
# Cell bodies
# ----------------------------------------------------------------------
def compute_partition_cell(graph, baseline: str, n: int, virtual: bool = False) -> Dict:
    """Partition ``graph`` with ``baseline`` into ``n`` fragments."""
    import time

    from repro.partition.serialize import partition_to_dict
    from repro.partitioners.base import get_partitioner

    start = time.perf_counter()
    partition = get_partitioner(baseline).partition(graph, n)
    seconds = time.perf_counter() - start
    if virtual:
        seconds = _virtual_partition_seconds(graph)
    payload = partition_to_dict(partition)
    return {
        "kind": "partition",
        "baseline": baseline,
        "n": n,
        "partition": payload,
        "content": payload_digest(payload),
        "seconds": seconds,
    }


def compute_refine_cell(
    graph,
    initial: Dict,
    algorithm: str,
    cut_type: str,
    model: Dict,
    kwargs: Optional[Dict] = None,
    virtual: bool = False,
) -> Dict:
    """Refine a serialized partition with ParE2H / ParV2H for one model."""
    from repro.core import refiner_class
    from repro.partition.serialize import partition_from_dict, partition_to_dict

    refiner_cls = refiner_class(cut_type, parallel=True)
    refiner = refiner_cls(model_from_payload(model), **(kwargs or {}))
    refined, profile = refiner.refine(partition_from_dict(initial, graph))
    profile_payload = profile_to_payload(profile)
    if virtual:
        profile_payload["wall_seconds"] = profile.total_time
    payload = partition_to_dict(refined)
    return {
        "kind": "refine",
        "algorithm": algorithm,
        "partition": payload,
        "content": payload_digest(payload),
        "profile": profile_payload,
    }


def compute_incremental_cell(
    graph,
    initial: Dict,
    algorithm: str,
    cut_type: str,
    model: Dict,
    mutations: str,
    kwargs: Optional[Dict] = None,
    virtual: bool = False,
) -> Dict:
    """Incremental maintenance of a refined partition (DESIGN §15).

    Applies the mutation batch through the in-place coherence hooks and
    runs the dirty-region refiner over the resulting dirty set.  The
    shared dataset graph is never touched: the batch replays against a
    private copy, so every other cell in the process keeps seeing the
    original graph.
    """
    from repro.core import MutationBatch, apply_mutations, refiner_class
    from repro.graph.digraph import Graph
    from repro.partition.serialize import partition_from_dict, partition_to_dict

    refiner_cls = refiner_class(cut_type, parallel=True)
    private = Graph(graph.num_vertices, list(graph.edges()), directed=graph.directed)
    partition = partition_from_dict(initial, private)
    batch = MutationBatch.parse(mutations)
    dirty = apply_mutations(partition, batch)
    refiner = refiner_cls(model_from_payload(model), **(kwargs or {}))
    refined, profile = refiner.refine_incremental(partition, dirty)
    profile_payload = profile_to_payload(profile)
    if virtual:
        profile_payload["wall_seconds"] = profile.total_time
    stats = profile.stats
    inc = stats.incremental
    payload = partition_to_dict(refined)
    return {
        "kind": "incremental",
        "algorithm": algorithm,
        "partition": payload,
        "content": payload_digest(payload),
        "profile": profile_payload,
        "maintenance": {
            "mutations": len(batch),
            "batch": batch.digest(),
            "dirty": inc.dirty if inc else len(dirty),
            "frontier": inc.frontier if inc else 0,
            "fragments": inc.fragments if inc else 0,
            "seeded": bool(inc.seeded) if inc else False,
            "rescoring_calls": stats.rescoring_calls,
            "cost_before": stats.cost_before,
            "cost_after": stats.cost_after,
        },
    }


def compute_run_cell(
    graph,
    partition: Dict,
    algorithm: str,
    params: Optional[Dict] = None,
) -> Dict:
    """Simulated execution of ``algorithm`` over a serialized partition."""
    from repro.algorithms.registry import get_algorithm
    from repro.partition.serialize import partition_from_dict

    result = get_algorithm(algorithm).run(
        partition_from_dict(partition, graph), **(params or {})
    )
    return {
        "kind": "run",
        "algorithm": algorithm,
        "makespan": result.makespan,
        "profile": result.profile.to_dict(),
    }


def compute_composite_cell(
    graph,
    initial: Dict,
    cut_type: str,
    batch: Sequence[str],
    models: Dict[str, Dict],
    virtual: bool = False,
    cluster_spec: Optional[Dict] = None,
) -> Dict:
    """ParME2H / ParMV2H composite refinement over a serialized partition."""
    from repro.core import refiner_class
    from repro.partition.serialize import partition_from_dict, partition_to_dict

    refiner_cls = refiner_class(cut_type, composite=True, parallel=True)
    # Rebuild models in batch order — the refiner's phase interleaving
    # follows the model dict's iteration order.
    rebuilt = {name: model_from_payload(models[name]) for name in batch}
    refiner = refiner_cls(rebuilt, cluster_spec=cluster_spec)
    composite, profile = refiner.refine(partition_from_dict(initial, graph))
    profile_payload = profile_to_payload(profile)
    if virtual:
        profile_payload["wall_seconds"] = profile.total_time
    partitions = {
        name: partition_to_dict(composite.partition_for(name)) for name in batch
    }
    return {
        "kind": "composite",
        "batch": list(batch),
        "partitions": partitions,
        "views": {name: payload_digest(p) for name, p in partitions.items()},
        "profile": profile_payload,
    }


# ----------------------------------------------------------------------
# Memo cells: whitelisted module-level functions addressed by name, so
# worker processes can execute them from a plain spec.
# ----------------------------------------------------------------------
MEMO_FUNCTIONS: Dict[str, str] = {
    "exp6_table5": "repro.eval.experiments.exp6:table5_payload",
    "exp6_reference_times": "repro.eval.experiments.exp6:reference_times_payload",
}


def compute_memo_cell(memo_kind: str, params: Dict) -> Dict:
    """Run the whitelisted memo function ``memo_kind`` with ``params``."""
    import importlib

    try:
        target = MEMO_FUNCTIONS[memo_kind]
    except KeyError:
        raise KeyError(
            f"unknown memo cell {memo_kind!r}; known: {sorted(MEMO_FUNCTIONS)}"
        ) from None
    module_name, func_name = target.split(":")
    func = getattr(importlib.import_module(module_name), func_name)
    return {"kind": "memo", "memo_kind": memo_kind, "value": func(**params)}


#: fields every payload of a given kind must carry to be usable by its
#: dependents and by the table-rendering phase
REQUIRED_FIELDS: Dict[str, Sequence[str]] = {
    "partition": ("partition", "content", "seconds"),
    "refine": ("partition", "content", "profile"),
    "incremental": ("partition", "content", "profile", "maintenance"),
    "run": ("makespan", "profile"),
    "composite": ("partitions", "views", "profile"),
    "memo": ("value",),
}


def payload_is_wellformed(payload) -> bool:
    """Whether ``payload`` has the shape its declared kind requires.

    Checksum validation (:mod:`repro.eval.engine.cache`) proves an
    artifact's bytes are intact; this proves the *content* is usable —
    guarding against stale entries written by an older payload schema.
    The executor quarantines shape-invalid artifacts exactly like
    corrupt ones.
    """
    if not isinstance(payload, dict):
        return False
    fields = REQUIRED_FIELDS.get(payload.get("kind"))
    return fields is not None and all(f in payload for f in fields)


def payload_meta(payload: Dict) -> Dict:
    """The light part of an artifact payload (everything but bulk data).

    Workers return this to the parent so the executor can key dependent
    cells (content digests) without shipping whole partitions back.
    """
    return {
        k: v
        for k, v in payload.items()
        if k not in ("partition", "partitions", "profile", "value")
    }


META_FIELDS = ("content", "views", "seconds", "makespan")


def cell_deps_content(spec: Dict, dep_meta: Dict) -> str:
    """Content digest of the partition a dependent cell consumes."""
    view = spec.get("view")
    if view is not None:
        return dep_meta["views"][view]
    return dep_meta["content"]
