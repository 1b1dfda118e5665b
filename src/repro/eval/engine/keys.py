"""Canonical digests: the hashing primitives cell keys are minted from.

Every cache key is the SHA-256 of a *canonical JSON* rendering of the
cell's full configuration: graph content hash (``Graph.digest()``),
partitioner / refiner / algorithm parameters, a refinement's exact
cost-model coefficients, and the digest of the ``repro`` source
(:func:`source_digest`), so other code never shares a key.  Canonical
JSON (sorted keys, fixed separators, exact float ``repr``) makes keys
independent of dict insertion order, ``PYTHONHASHSEED``, and the process
that computed them; any parameter change produces a different key.

Which fields each cell kind hashes is that kind's row in
:data:`repro.eval.engine.cells.CELLS`; this module only knows how to
hash.
"""

from __future__ import annotations

import functools
import hashlib
import json
from pathlib import Path
from typing import Dict


def canonical_json(obj) -> str:
    """Deterministic JSON text: sorted keys, no whitespace, exact floats."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def config_digest(kind: str, **params) -> str:
    """SHA-256 hex digest of ``{"kind": kind, **params}`` in canonical JSON."""
    payload = dict(params)
    payload["kind"] = kind
    return hashlib.sha256(canonical_json(payload).encode("ascii")).hexdigest()


@functools.lru_cache(maxsize=None)
def source_digest() -> str:
    """SHA-256 of the ``repro`` package's source, computed once per process:
    every ``.py`` file's path relative to the package, in sorted order,
    each followed by its bytes."""
    root = Path(__file__).resolve().parents[2]
    digest = hashlib.sha256()
    names = sorted(path.relative_to(root).as_posix() for path in root.rglob("*.py"))
    for name in names:
        data = (root / name).read_bytes()
        digest.update(b"%s\0%d\0" % (name.encode(), len(data)) + data)
    return digest.hexdigest()


def payload_digest(payload: Dict) -> str:
    """Content hash of an arbitrary JSON-serializable payload."""
    return hashlib.sha256(canonical_json(payload).encode("ascii")).hexdigest()


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
