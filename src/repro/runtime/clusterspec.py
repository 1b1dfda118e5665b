"""Heterogeneous cluster description: per-worker speeds and bandwidths.

A :class:`ClusterSpec` makes worker capacity a *permanent property* of
the cluster (contrast with the injected straggler faults of
:mod:`repro.runtime.faults`, which are transient):

* ``speeds[f]`` — relative compute speed of worker ``f``.  A worker with
  speed 0.5 takes twice as long per op; ops charged to it are divided by
  the speed before entering the superstep max.
* ``bandwidths[f]`` — relative NIC bandwidth of worker ``f``.  The
  effective bandwidth of a link is ``min(bandwidths[src],
  bandwidths[dst])`` unless overridden per link; :attr:`link_bandwidths`
  is that rule applied once, as an n×n matrix.
* ``links`` — optional directed per-link overrides ``(src, dst, bw)``
  (JSON form ``"src->dst": bw``) for topologies where a specific pair is
  slower than both endpoints' NICs suggest (oversubscribed switch,
  cross-rack hop).

All capacities are relative to the homogeneous baseline of 1.0: a
homogeneous cluster *is* the all-ones spec (:meth:`uniform`), and every
consumer runs one arithmetic whose divisions by 1.0 are exact, so "no
spec" and the uniform spec price identically.  Validation happens at
construction: non-positive or non-finite entries raise ``ValueError``
naming the offending worker or link, and :meth:`validate_for` rejects
specs whose worker count does not match the cluster.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Tuple

import numpy as np


def _check_capacity(kind: str, who: str, value: float) -> float:
    value = float(value)
    if math.isnan(value) or math.isinf(value) or value <= 0.0:
        raise ValueError(
            f"{who} has invalid {kind} {value!r}: "
            f"{kind}s must be positive and finite"
        )
    return value


@dataclass(frozen=True)
class ClusterSpec:
    """Per-worker compute speeds and per-link bandwidths.

    Immutable and hashable; equality is structural.  Construct directly,
    via :meth:`uniform`, or from JSON with :meth:`from_dict` /
    :meth:`load`.
    """

    speeds: Tuple[float, ...]
    bandwidths: Tuple[float, ...]
    links: Tuple[Tuple[int, int, float], ...] = ()

    def __post_init__(self) -> None:
        speeds = tuple(
            _check_capacity("speed", f"worker {i}", s)
            for i, s in enumerate(self.speeds)
        )
        bandwidths = tuple(
            _check_capacity("bandwidth", f"worker {i}", b)
            for i, b in enumerate(self.bandwidths)
        )
        if not speeds:
            raise ValueError("cluster spec needs at least one worker")
        if len(speeds) != len(bandwidths):
            raise ValueError(
                f"cluster spec has {len(speeds)} speeds but "
                f"{len(bandwidths)} bandwidths"
            )
        n = len(speeds)
        seen = set()
        links = []
        for src, dst, bw in self.links:
            src, dst = int(src), int(dst)
            name = f"link {src}->{dst}"
            if not (0 <= src < n) or not (0 <= dst < n):
                raise ValueError(
                    f"{name} references a worker outside 0..{n - 1}"
                )
            if src == dst:
                raise ValueError(
                    f"{name} is a self-link: local delivery is free and "
                    "cannot be overridden"
                )
            if (src, dst) in seen:
                raise ValueError(f"{name} appears more than once")
            seen.add((src, dst))
            links.append((src, dst, _check_capacity("bandwidth", name, bw)))
        # Effective bandwidth of every (src, dst) link: the slower NIC
        # unless overridden.  The diagonal is 1.0 (local delivery is free).
        linkbw = np.minimum.outer(bandwidths, bandwidths)
        for src, dst, bw in links:
            linkbw[src, dst] = bw
        np.fill_diagonal(linkbw, 1.0)
        linkbw.flags.writeable = False
        object.__setattr__(self, "speeds", speeds)
        object.__setattr__(self, "bandwidths", bandwidths)
        object.__setattr__(self, "links", tuple(sorted(links)))
        object.__setattr__(self, "link_bandwidths", linkbw)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def uniform(cls, num_workers: int) -> "ClusterSpec":
        """The homogeneous spec: every capacity exactly 1.0."""
        return cls((1.0,) * num_workers, (1.0,) * num_workers)

    @classmethod
    def from_dict(cls, payload: Mapping) -> "ClusterSpec":
        """Inverse of :meth:`to_dict`; raises ``ValueError`` on bad shape."""
        if not isinstance(payload, Mapping):
            raise ValueError(
                f"cluster spec payload must be a mapping, got "
                f"{type(payload).__name__}"
            )
        for field in ("speeds", "bandwidths"):
            if field not in payload:
                raise ValueError(f"cluster spec payload is missing {field!r}")
        links = []
        for key, bw in dict(payload.get("links") or {}).items():
            parts = str(key).split("->")
            if len(parts) != 2:
                raise ValueError(
                    f"link key {key!r} is not of the form 'src->dst'"
                )
            try:
                src, dst = int(parts[0]), int(parts[1])
            except ValueError:
                raise ValueError(
                    f"link key {key!r} is not of the form 'src->dst'"
                ) from None
            links.append((src, dst, bw))
        return cls(
            tuple(payload["speeds"]), tuple(payload["bandwidths"]), tuple(links)
        )

    @classmethod
    def load(cls, path) -> "ClusterSpec":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def num_workers(self) -> int:
        return len(self.speeds)

    @property
    def is_uniform(self) -> bool:
        """True when every capacity is exactly 1.0 (the homogeneous cluster)."""
        return (
            all(s == 1.0 for s in self.speeds)
            and all(b == 1.0 for b in self.bandwidths)
            and all(bw == 1.0 for _, _, bw in self.links)
        )

    @property
    def min_speed(self) -> float:
        return min(self.speeds)

    @property
    def min_bandwidth(self) -> float:
        bws = [min(self.bandwidths)]
        bws.extend(bw for _, _, bw in self.links)
        return min(bws)

    def validate_for(self, num_workers: int) -> None:
        """Reject a spec whose worker count differs from the cluster's."""
        if self.num_workers != num_workers:
            raise ValueError(
                f"cluster spec describes {self.num_workers} workers but "
                f"the cluster has {num_workers}"
            )

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict:
        return {
            "speeds": list(self.speeds),
            "bandwidths": list(self.bandwidths),
            "links": {f"{src}->{dst}": bw for src, dst, bw in self.links},
        }

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    def digest(self) -> str:
        """Canonical SHA-256 of the spec, for eval-engine config keys."""
        blob = json.dumps(
            self.to_dict(), sort_keys=True, separators=(",", ":"),
            allow_nan=False,
        )
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# Coercion and the process-wide active spec
# ----------------------------------------------------------------------
def coerce_cluster_spec(value) -> Optional[ClusterSpec]:
    """Accept a ClusterSpec, a JSON payload dict, a file path, or None."""
    if value is None or isinstance(value, ClusterSpec):
        return value
    if isinstance(value, Mapping):
        return ClusterSpec.from_dict(value)
    if isinstance(value, (str, bytes)) or hasattr(value, "__fspath__"):
        return ClusterSpec.load(value)
    raise ValueError(
        f"cannot interpret {type(value).__name__} as a cluster spec"
    )


_SPEC_DEFAULT: Optional[ClusterSpec] = None


def cluster_spec_default() -> Optional[ClusterSpec]:
    """The process-wide active cluster spec (None = homogeneous)."""
    return _SPEC_DEFAULT


def set_cluster_spec_default(
    spec: Optional[ClusterSpec],
) -> Optional[ClusterSpec]:
    """Set the process-wide spec; returns the previous one.

    ``run_all --cluster-spec`` flips this before planning so every
    planned run/refine cell records the spec payload and spawn workers
    reproduce it.
    """
    global _SPEC_DEFAULT
    previous = _SPEC_DEFAULT
    _SPEC_DEFAULT = coerce_cluster_spec(spec)
    return previous


def spec_payload(value) -> Optional[Dict]:
    """Canonical JSON payload of ``value`` (any coercible form), or None.

    ``None`` and the uniform spec both map to ``None``, so eval-engine
    config keys stay byte-identical to the homogeneous ones whenever the
    spec would not change behaviour.  Falls back to the process-wide
    default spec when ``value`` is None.
    """
    spec = coerce_cluster_spec(value) or cluster_spec_default()
    return None if spec is None or spec.is_uniform else spec.to_dict()
