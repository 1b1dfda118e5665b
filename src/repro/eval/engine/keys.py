"""Canonical config digests for evaluation cells.

Every cache key is the SHA-256 of a *canonical JSON* rendering of the
cell's full configuration: graph content hash (``Graph.digest()``),
partitioner / refiner / algorithm parameters, and — for refinements —
the exact cost-model coefficients.  Canonical JSON (sorted keys, fixed
separators, exact float ``repr``) makes keys independent of dict
insertion order, ``PYTHONHASHSEED``, and the process that computed them;
any parameter change produces a different key.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, Optional, Sequence


def canonical_json(obj) -> str:
    """Deterministic JSON text: sorted keys, no whitespace, exact floats."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def config_digest(kind: str, **params) -> str:
    """SHA-256 hex digest of ``{"kind": kind, **params}`` in canonical JSON."""
    payload = dict(params)
    payload["kind"] = kind
    return hashlib.sha256(canonical_json(payload).encode("ascii")).hexdigest()


def payload_digest(payload: Dict) -> str:
    """Content hash of an arbitrary JSON-serializable payload."""
    return hashlib.sha256(canonical_json(payload).encode("ascii")).hexdigest()


def partition_digest(partition) -> str:
    """Content hash of a hybrid partition (via its serialized form)."""
    from repro.partition.serialize import partition_to_dict

    return payload_digest(partition_to_dict(partition))


def model_payload(model) -> Dict:
    """JSON-serializable coefficients of a :class:`CostModel`.

    The payload is both the cache-key ingredient (a retrained model must
    invalidate refinements driven by the old one) and what worker
    processes rebuild the exact model from, so every process refines
    with bit-identical polynomials.
    """
    return {
        "name": model.name,
        "h": model.h.to_dict(),
        "g": model.g.to_dict(),
        "gate": list(model.gate) if model.gate else None,
    }


def model_digest(model) -> str:
    """Content hash of a cost model's coefficients."""
    return payload_digest(model_payload(model))


# ----------------------------------------------------------------------
# Cell keys.  ``virtual`` tags keys of deterministic-wall-clock runs so
# they never collide with real measurements in a shared cache.
# ----------------------------------------------------------------------
def _walls(virtual: bool) -> Dict:
    return {"virtual_walls": True} if virtual else {}


def partition_key(graph_digest: str, baseline: str, n: int, virtual: bool = False) -> str:
    """Key of an initial-partition cell."""
    return config_digest(
        "partition", graph=graph_digest, baseline=baseline, n=n, **_walls(virtual)
    )


def refine_key(
    partition_content: str,
    algorithm: str,
    cut_type: str,
    model_hash: str,
    kwargs: Optional[Dict] = None,
    virtual: bool = False,
) -> str:
    """Key of a refine cell over a partition with the given content hash."""
    return config_digest(
        "refine",
        partition=partition_content,
        algorithm=algorithm,
        cut=cut_type,
        model=model_hash,
        kwargs=kwargs or {},
        **_walls(virtual),
    )


def incremental_key(
    partition_content: str,
    algorithm: str,
    cut_type: str,
    model_hash: str,
    batch_digest: str,
    kwargs: Optional[Dict] = None,
    virtual: bool = False,
) -> str:
    """Key of an incremental-maintenance cell (DESIGN §15).

    Keyed on the **base** partition's content hash plus the mutation
    batch's canonical digest: the same update stream replayed over the
    same deployment is a cache hit, while any divergence in either —
    a different base refinement or a reordered batch — recomputes.
    """
    return config_digest(
        "incremental",
        partition=partition_content,
        algorithm=algorithm,
        cut=cut_type,
        model=model_hash,
        batch=batch_digest,
        kwargs=kwargs or {},
        **_walls(virtual),
    )


def run_key(
    partition_content: str,
    algorithm: str,
    params: Optional[Dict] = None,
) -> str:
    """Key of a run cell (simulated algorithm execution) over a partition.

    Run cells record only simulated quantities, which are deterministic,
    so the key carries no virtual-walls tag.
    """
    return config_digest(
        "run",
        partition=partition_content,
        algorithm=algorithm,
        params=params or {},
    )


def composite_key(
    partition_content: str,
    batch: Sequence[str],
    model_hashes: Dict[str, str],
    virtual: bool = False,
    cluster_spec: Optional[Dict] = None,
) -> str:
    """Key of a composite-refine cell (ParME2H / ParMV2H over a batch).

    ``cluster_spec`` (the canonical heterogeneous-spec payload) is folded
    into the digest only when present, so homogeneous keys stay
    byte-identical to those minted before the spec existed.  Run and
    refine cells fold theirs through ``params`` / ``kwargs`` instead.
    """
    extra = {"cluster_spec": cluster_spec} if cluster_spec is not None else {}
    return config_digest(
        "composite",
        partition=partition_content,
        batch=list(batch),
        models=dict(model_hashes),
        **extra,
        **_walls(virtual),
    )


def memo_key(memo_kind: str, params: Dict, virtual: bool = False) -> str:
    """Key of a generic memoized cell (e.g. Exp-6 cost-model training)."""
    return config_digest("memo", memo_kind=memo_kind, params=params, **_walls(virtual))
