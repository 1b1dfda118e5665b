"""The cell table: the one definition of every evaluation cell kind.

A *cell* is one cacheable step of the evaluation pipeline.  Five kinds
cover everything the experiments compute, and :data:`CELLS` holds one
row per kind:

========== ==========================================================
kind       artifact
========== ==========================================================
partition  baseline partition of (graph, partitioner, n) + seconds
refine     ParE2H / ParV2H refinement of a partition for one model
run        simulated execution of one algorithm over one partition
composite  ParME2H / ParMV2H composite refinement over a batch
memo       any JSON-serializable computation (Exp-6 training tables)
========== ==========================================================

A row is ``(spec, key, compute, required)``:

* ``spec(...)`` builds the cell's *spec* — a JSON dict that is the
  cell's identity minus the content of its input.  The cluster-spec and
  backend folds happen here and nowhere else.
* ``key(spec, input_content, virtual)`` mints the physical cache key;
  ``input_content`` is the graph digest for ``partition``, the content
  digest of the consumed partition for ``refine`` / ``run`` /
  ``composite``, and ``None`` for ``memo``.  Every key also holds the
  digest of the ``repro`` source (:func:`_cell_digest`), so a cache
  never serves a cell that other code computed.
* ``compute(spec, graph, source, virtual)`` produces the artifact
  payload; ``source`` is the consumed partition in serialized form.
* ``required`` names the fields a stored payload must carry.

The facade (:mod:`~repro.eval.engine.engine`), the planner
(:mod:`~repro.eval.engine.jobs`) and the executor
(:mod:`~repro.eval.engine.executor`) are all callers of this table: the
planner's spec is the row's spec plus ``dataset`` (and ``view``), and
both the warm phase and the facade mint keys through the row's ``key``
— so a cell the planner warmed is a hit for the facade that reads it by
construction, not by keeping copies equal.

Specs and payloads are plain JSON, so the same code runs in-process for
cache misses and inside spawn-safe worker processes for the parallel
warm phase.  Cost models travel *by value* (their exact polynomial
coefficients) so every process refines bit-identically.

``virtual`` replaces measured wall-clock seconds with deterministic
proxies (the simulated refinement time; graph size for partitioners) —
used by golden tests to pin the otherwise non-deterministic Exp-3/Exp-5
columns — and tags the keys of every kind that records wall-clock so
virtual artifacts never mix with real measurements in a shared cache.
"""

from __future__ import annotations

from typing import Callable, Dict, NamedTuple, Optional, Sequence, Tuple

from repro.eval.engine.keys import config_digest, payload_digest, source_digest


def _cell_digest(kind: str, **params) -> str:
    """A physical key: the cell's parameters and the code's source digest."""
    return config_digest(kind, code=source_digest(), **params)


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


def profile_to_payload(profile, virtual: bool = False) -> Dict:
    """Serialize the :class:`RefinementProfile` fields the experiments read."""
    return {
        "phase_times": dict(profile.phase_times),
        "phase_supersteps": dict(profile.phase_supersteps),
        "total_time": profile.total_time,
        "wall_seconds": profile.total_time if virtual else profile.wall_seconds,
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


# ----------------------------------------------------------------------
# Folds: process-wide defaults recorded in the spec, so cache keys carry
# them and spawn workers rebuild exactly what the parent selected.  The
# homogeneous / ``simulated`` defaults fold to nothing, leaving every
# spec that names neither byte-identical to one minted before they existed.
# ----------------------------------------------------------------------
def _fold_cluster_spec(params: Dict) -> Dict:
    """Normalize ``params['cluster_spec']`` to its canonical payload.

    Resolves the explicit value or the process-wide default
    (``run_all --cluster-spec`` flips it before planning) and collapses
    uniform specs to absent.
    """
    from repro.runtime.clusterspec import spec_payload

    payload = spec_payload(params.pop("cluster_spec", None))
    if payload is not None:
        params["cluster_spec"] = payload
    return params


def _fold_backend(params: Dict) -> Dict:
    """Record a non-default execution backend (``run_all --backend shm``)."""
    from repro.runtime.parallel import backend_default, shm_workers_default

    if "backend" not in params:
        backend = backend_default()
        if backend != "simulated":
            params["backend"] = backend
            workers = shm_workers_default()
            if workers is not None:
                params.setdefault("shm_workers", workers)
    return params


def _walls(virtual: bool) -> Dict:
    return {"virtual_walls": True} if virtual else {}


# ----------------------------------------------------------------------
# partition
# ----------------------------------------------------------------------
def _partition_spec(baseline: str, n: int) -> Dict:
    return {"kind": "partition", "baseline": baseline, "n": n}


def _partition_key(spec: Dict, graph_digest: str, virtual: bool) -> str:
    return _cell_digest(
        "partition",
        graph=graph_digest,
        baseline=spec["baseline"],
        n=spec["n"],
        **_walls(virtual),
    )


def _compute_partition(spec: Dict, graph, source, virtual: bool) -> Dict:
    import time

    from repro.partition.serialize import partition_to_dict
    from repro.partitioners.base import get_partitioner

    start = time.perf_counter()
    partition = get_partitioner(spec["baseline"]).partition(graph, spec["n"])
    seconds = time.perf_counter() - start
    if virtual:
        # Deterministic stand-in for partitioner wall-clock: graph size scaled.
        seconds = (graph.num_vertices + graph.num_edges) * 1e-6
    payload = partition_to_dict(partition)
    return {
        "kind": "partition",
        "baseline": spec["baseline"],
        "n": spec["n"],
        "partition": payload,
        "content": payload_digest(payload),
        "seconds": seconds,
    }


# ----------------------------------------------------------------------
# refine
# ----------------------------------------------------------------------
def _refine_spec(
    algorithm: str, cut_type: str, model: Dict, kwargs: Optional[Dict] = None
) -> Dict:
    return {
        "kind": "refine",
        "algorithm": algorithm,
        "cut": cut_type,
        "model": model,
        "kwargs": _fold_cluster_spec(dict(kwargs or {})),
    }


def _refine_key(spec: Dict, partition_content: str, virtual: bool) -> str:
    return _cell_digest(
        "refine",
        partition=partition_content,
        algorithm=spec["algorithm"],
        cut=spec["cut"],
        model=payload_digest(spec["model"]),
        kwargs=spec["kwargs"],
        **_walls(virtual),
    )


def _compute_refine(spec: Dict, graph, source: Dict, virtual: bool) -> Dict:
    from repro.core import refiner_class
    from repro.partition.serialize import partition_from_dict, partition_to_dict

    refiner_cls = refiner_class(spec["cut"], parallel=True)
    refiner = refiner_cls(model_from_payload(spec["model"]), **spec["kwargs"])
    refined, profile = refiner.refine(partition_from_dict(source, graph))
    payload = partition_to_dict(refined)
    return {
        "kind": "refine",
        "algorithm": spec["algorithm"],
        "partition": payload,
        "content": payload_digest(payload),
        "profile": profile_to_payload(profile, virtual),
    }


# ----------------------------------------------------------------------
# run
# ----------------------------------------------------------------------
def _run_spec(algorithm: str, params: Optional[Dict] = None) -> Dict:
    return {
        "kind": "run",
        "algorithm": algorithm,
        "params": _fold_backend(_fold_cluster_spec(dict(params or {}))),
    }


def _run_key(spec: Dict, partition_content: str, virtual: bool) -> str:
    # Run cells record only simulated quantities, which are
    # deterministic, so the key carries no virtual-walls tag.
    return _cell_digest(
        "run",
        partition=partition_content,
        algorithm=spec["algorithm"],
        params=spec["params"],
    )


def _compute_run(spec: Dict, graph, source: Dict, virtual: bool) -> Dict:
    from repro.algorithms.registry import get_algorithm
    from repro.partition.serialize import partition_from_dict

    result = get_algorithm(spec["algorithm"]).run(
        partition_from_dict(source, graph), **spec["params"]
    )
    return {
        "kind": "run",
        "algorithm": spec["algorithm"],
        "makespan": result.makespan,
        "profile": result.profile.to_dict(),
    }


# ----------------------------------------------------------------------
# composite
# ----------------------------------------------------------------------
def _composite_spec(
    cut_type: str, batch: Sequence[str], models: Dict[str, Dict], cluster_spec=None
) -> Dict:
    spec = {
        "kind": "composite",
        "cut": cut_type,
        "batch": list(batch),
        "models": {name: models[name] for name in batch},
    }
    spec.update(_fold_cluster_spec({"cluster_spec": cluster_spec}))
    return spec


def _composite_key(spec: Dict, partition_content: str, virtual: bool) -> str:
    # ``cut`` stays out of the digest (the consumed partition's content
    # already implies it), and ``cluster_spec`` enters only when present.
    extra = {"cluster_spec": spec["cluster_spec"]} if "cluster_spec" in spec else {}
    return _cell_digest(
        "composite",
        partition=partition_content,
        batch=spec["batch"],
        models={name: payload_digest(m) for name, m in spec["models"].items()},
        **extra,
        **_walls(virtual),
    )


def _compute_composite(spec: Dict, graph, source: Dict, virtual: bool) -> Dict:
    from repro.core import refiner_class
    from repro.partition.serialize import partition_from_dict, partition_to_dict

    batch = spec["batch"]
    refiner_cls = refiner_class(spec["cut"], composite=True, parallel=True)
    # Rebuild models in batch order — the refiner's phase interleaving
    # follows the model dict's iteration order.
    rebuilt = {name: model_from_payload(spec["models"][name]) for name in batch}
    refiner = refiner_cls(rebuilt, cluster_spec=spec.get("cluster_spec"))
    composite, profile = refiner.refine(partition_from_dict(source, graph))
    partitions = {
        name: partition_to_dict(composite.partition_for(name)) for name in batch
    }
    return {
        "kind": "composite",
        "batch": list(batch),
        "partitions": partitions,
        "views": {name: payload_digest(p) for name, p in partitions.items()},
        "profile": profile_to_payload(profile, virtual),
    }


# ----------------------------------------------------------------------
# memo: whitelisted module-level functions addressed by name, so worker
# processes can execute them from a plain spec.
# ----------------------------------------------------------------------
MEMO_FUNCTIONS: Dict[str, str] = {
    "exp6_table5": "repro.eval.experiments.exp6:table5_payload",
    "exp6_reference_times": "repro.eval.experiments.exp6:reference_times_payload",
}


def _memo_spec(memo_kind: str, params: Optional[Dict] = None) -> Dict:
    return {"kind": "memo", "memo_kind": memo_kind, "params": params or {}}


def _memo_key(spec: Dict, _no_input: None, virtual: bool) -> str:
    return _cell_digest(
        "memo", memo_kind=spec["memo_kind"], params=spec["params"], **_walls(virtual)
    )


def _compute_memo(spec: Dict, graph, source, virtual: bool) -> Dict:
    import importlib

    memo_kind = spec["memo_kind"]
    try:
        target = MEMO_FUNCTIONS[memo_kind]
    except KeyError:
        raise KeyError(
            f"unknown memo cell {memo_kind!r}; known: {sorted(MEMO_FUNCTIONS)}"
        ) from None
    module_name, func_name = target.split(":")
    func = getattr(importlib.import_module(module_name), func_name)
    return {"kind": "memo", "memo_kind": memo_kind, "value": func(**spec["params"])}


# ----------------------------------------------------------------------
# The table
# ----------------------------------------------------------------------
class CellKind(NamedTuple):
    """One row of :data:`CELLS` (see the module docstring)."""

    spec: Callable[..., Dict]
    key: Callable[[Dict, Optional[str], bool], str]
    compute: Callable[[Dict, object, Optional[Dict], bool], Dict]
    #: fields a payload of this kind must carry to be usable by its
    #: dependents and by the table-rendering phase
    required: Tuple[str, ...]


CELLS: Dict[str, CellKind] = {
    "partition": CellKind(
        _partition_spec,
        _partition_key,
        _compute_partition,
        ("partition", "content", "seconds"),
    ),
    "refine": CellKind(
        _refine_spec, _refine_key, _compute_refine, ("partition", "content", "profile")
    ),
    "run": CellKind(_run_spec, _run_key, _compute_run, ("makespan", "profile")),
    "composite": CellKind(
        _composite_spec,
        _composite_key,
        _compute_composite,
        ("partitions", "views", "profile"),
    ),
    "memo": CellKind(_memo_spec, _memo_key, _compute_memo, ("value",)),
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
    row = CELLS.get(payload.get("kind"))
    return row is not None and all(f in payload for f in row.required)


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
