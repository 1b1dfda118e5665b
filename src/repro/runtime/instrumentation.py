"""Run profiles: what the simulator records about one algorithm execution.

Profiles serve two consumers:

* the evaluation harness reads ``makespan`` (the simulated parallel
  runtime) and the per-worker breakdowns for the Exp-1/Exp-2 figures;
* the cost-model learner reads ``comp_ops_by_copy`` and
  ``comm_bytes_by_master`` — the running log of Section 4 from which
  training samples ``[X(v), t]`` are extracted.

When the run executes under fault injection
(:mod:`repro.runtime.faults`) the profile additionally records failure
events, rollback-recovery time, and checkpoint volume, so the price of
protection is visible next to the makespan it protects.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat
from operator import add
from typing import Dict, List, Optional, Tuple

import numpy as np


def fold(into: Dict, keys: list, amounts: np.ndarray) -> None:
    """Add ``amounts`` to ``into`` under ``keys``, on top of what it holds:
    a key already there keeps its place, a new one is appended in order."""
    into.update(zip(keys, map(add, map(into.get, keys, repeat(0.0)), amounts.tolist())))


@dataclass(frozen=True)
class FailureEvent:
    """One injected failure and what recovering from it cost.

    ``kind`` is ``"crash"`` (transient, rollback recovery) or ``"loss"``
    (permanent, failover); message drops/duplicates are counted on the
    profile, not logged per event.  ``promoted_masters`` and
    ``replaced_vertices`` are only nonzero for losses.
    """

    kind: str
    worker: int
    superstep: int
    recovery_time: float = 0.0
    replayed_supersteps: int = 0
    promoted_masters: int = 0
    replaced_vertices: int = 0

    def to_dict(self) -> Dict:
        """JSON-serializable representation."""
        return {
            "kind": self.kind,
            "worker": self.worker,
            "superstep": self.superstep,
            "recovery_time": self.recovery_time,
            "replayed_supersteps": self.replayed_supersteps,
            "promoted_masters": self.promoted_masters,
            "replaced_vertices": self.replaced_vertices,
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "FailureEvent":
        """Inverse of :meth:`to_dict`."""
        return cls(
            kind=data["kind"],
            worker=int(data["worker"]),
            superstep=int(data["superstep"]),
            recovery_time=float(data["recovery_time"]),
            replayed_supersteps=int(data["replayed_supersteps"]),
            promoted_masters=int(data.get("promoted_masters", 0)),
            replaced_vertices=int(data.get("replaced_vertices", 0)),
        )


@dataclass
class SuperstepRecord:
    """Cost accounting for one superstep.

    ``wall_time_s`` is the *measured* wall-clock span of the superstep
    (compute + barrier), recorded so real and simulated time can be
    reported side by side.  It is deliberately excluded from
    :meth:`to_dict`: canonical comparisons, cache keys, and golden
    fixtures see only the simulated quantities, which stay bit-identical
    across execution backends.
    """

    index: int
    ops_by_worker: Dict[int, float]
    bytes_by_worker: Dict[int, float]
    time: float
    failures: List[FailureEvent] = field(default_factory=list)
    recovery_time: float = 0.0
    checkpoint_bytes: float = 0.0
    failover_time: float = 0.0
    wall_time_s: float = 0.0  # measured; never serialized

    @property
    def max_ops(self) -> float:
        """Largest per-worker op count this superstep."""
        return max(self.ops_by_worker.values(), default=0.0)

    @property
    def max_bytes(self) -> float:
        """Largest per-worker byte count this superstep."""
        return max(self.bytes_by_worker.values(), default=0.0)

    def to_dict(self) -> Dict:
        """JSON-serializable representation (int keys become strings)."""
        return {
            "index": self.index,
            "ops_by_worker": {str(k): v for k, v in self.ops_by_worker.items()},
            "bytes_by_worker": {str(k): v for k, v in self.bytes_by_worker.items()},
            "time": self.time,
            "failures": [f.to_dict() for f in self.failures],
            "recovery_time": self.recovery_time,
            "checkpoint_bytes": self.checkpoint_bytes,
            "failover_time": self.failover_time,
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "SuperstepRecord":
        """Inverse of :meth:`to_dict`."""
        return cls(
            index=int(data["index"]),
            ops_by_worker={int(k): float(v) for k, v in data["ops_by_worker"].items()},
            bytes_by_worker={
                int(k): float(v) for k, v in data["bytes_by_worker"].items()
            },
            time=float(data["time"]),
            failures=[FailureEvent.from_dict(f) for f in data.get("failures", [])],
            recovery_time=float(data.get("recovery_time", 0.0)),
            checkpoint_bytes=float(data.get("checkpoint_bytes", 0.0)),
            failover_time=float(data.get("failover_time", 0.0)),
        )


@dataclass
class RunProfile:
    """Full instrumentation record of one algorithm run.

    ``wall_time_s`` sums the measured per-superstep wall clock; like the
    per-record field it is excluded from :meth:`to_dict` so profiles
    compare bit-identically across execution backends.

    ``comp_ops_by_copy`` (keyed ``(fid, vertex)``) and
    ``comm_bytes_by_master`` are folded on read: ``Cluster.finish`` hands
    over the dense accumulators it charged (:meth:`defer`), and the
    first read of either attribute — training, :meth:`to_dict`,
    equality — builds the dict, with the keys, order and floats an eager
    fold would have given.  A run whose ledger nobody reads never builds it.
    """

    num_workers: int
    comp_ops_by_copy: Dict[Tuple[int, int], float] = field(default_factory=dict)
    comm_bytes_by_master: Dict[int, float] = field(default_factory=dict)
    comp_ops_by_worker: Dict[int, float] = field(default_factory=dict)
    bytes_by_worker: Dict[int, float] = field(default_factory=dict)
    supersteps: List[SuperstepRecord] = field(default_factory=list)
    makespan: float = 0.0
    failures: List[FailureEvent] = field(default_factory=list)
    recovery_time: float = 0.0
    checkpoint_bytes: float = 0.0
    losses: int = 0
    promoted_masters: int = 0
    replaced_vertices: int = 0
    failover_time: float = 0.0
    wall_time_s: float = 0.0  # measured; never serialized

    def defer(
        self, name: str, codes: np.ndarray, amounts: np.ndarray, base: Optional[int] = None
    ) -> None:
        """Fold ``amounts`` into the ledger dict ``name`` on its first read,
        under the keys ``codes`` — ``divmod(code, base)`` pairs with a base."""
        into = getattr(self, name)  # an earlier hand-over is folded first
        del self.__dict__[name]
        self.__dict__.setdefault("_deferred", {})[name] = (into, codes, amounts, base)

    def __getattr__(self, name: str):
        # Reached only when ``name`` is not set: a ledger handed over by
        # :meth:`defer` and not read yet.
        deferred = self.__dict__.get("_deferred")
        if not deferred or name not in deferred:
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}"
            )
        into, codes, amounts, base = deferred.pop(name)
        if base is None:
            keys = codes.tolist()
        else:
            keys = list(zip((codes // base).tolist(), (codes % base).tolist()))
        fold(into, keys, amounts)
        self.__dict__[name] = into
        return into

    @property
    def num_supersteps(self) -> int:
        """Number of supersteps executed."""
        return len(self.supersteps)

    @property
    def num_failures(self) -> int:
        """Number of injected failures the run recovered from."""
        return len(self.failures)

    @property
    def total_ops(self) -> float:
        """Total computation ops across all workers."""
        return sum(self.comp_ops_by_worker.values())

    @property
    def total_bytes(self) -> float:
        """Total bytes across all workers (each transfer counted twice)."""
        return sum(self.bytes_by_worker.values())

    def worker_time(self, fid: int, clock) -> float:
        """Aggregate busy time of one worker under ``clock`` charges."""
        return (
            self.comp_ops_by_worker.get(fid, 0.0) * clock.op_cost
            + self.bytes_by_worker.get(fid, 0.0) * clock.byte_cost
        )

    def to_dict(self) -> Dict:
        """JSON-serializable representation of the full profile.

        Tuple keys ``(fid, v)`` of ``comp_ops_by_copy`` become ``"fid,v"``
        strings and int keys become strings; floats round-trip exactly
        through JSON.
        This is what the evaluation engine's artifact cache stores for a
        ``run`` cell (:mod:`repro.eval.engine`).
        """
        return {
            "num_workers": self.num_workers,
            "comp_ops_by_copy": {
                f"{fid},{v}": ops for (fid, v), ops in self.comp_ops_by_copy.items()
            },
            "comm_bytes_by_master": {
                str(v): b for v, b in self.comm_bytes_by_master.items()
            },
            "comp_ops_by_worker": {
                str(k): v for k, v in self.comp_ops_by_worker.items()
            },
            "bytes_by_worker": {str(k): v for k, v in self.bytes_by_worker.items()},
            "supersteps": [s.to_dict() for s in self.supersteps],
            "makespan": self.makespan,
            "failures": [f.to_dict() for f in self.failures],
            "recovery_time": self.recovery_time,
            "checkpoint_bytes": self.checkpoint_bytes,
            "losses": self.losses,
            "promoted_masters": self.promoted_masters,
            "replaced_vertices": self.replaced_vertices,
            "failover_time": self.failover_time,
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "RunProfile":
        """Inverse of :meth:`to_dict`; keys it does not know (such as the
        ``messages_dropped`` / ``messages_duplicated`` counts older
        profiles carry) are ignored."""

        def copy_key(text: str) -> Tuple[int, int]:
            fid, v = text.split(",")
            return (int(fid), int(v))

        return cls(
            num_workers=int(data["num_workers"]),
            comp_ops_by_copy={
                copy_key(k): float(v) for k, v in data["comp_ops_by_copy"].items()
            },
            comm_bytes_by_master={
                int(k): float(v) for k, v in data["comm_bytes_by_master"].items()
            },
            comp_ops_by_worker={
                int(k): float(v) for k, v in data["comp_ops_by_worker"].items()
            },
            bytes_by_worker={
                int(k): float(v) for k, v in data["bytes_by_worker"].items()
            },
            supersteps=[SuperstepRecord.from_dict(s) for s in data["supersteps"]],
            makespan=float(data["makespan"]),
            failures=[FailureEvent.from_dict(f) for f in data.get("failures", [])],
            recovery_time=float(data.get("recovery_time", 0.0)),
            checkpoint_bytes=float(data.get("checkpoint_bytes", 0.0)),
            losses=int(data.get("losses", 0)),
            promoted_masters=int(data.get("promoted_masters", 0)),
            replaced_vertices=int(data.get("replaced_vertices", 0)),
            failover_time=float(data.get("failover_time", 0.0)),
        )

    def summary(self) -> str:
        """One-line human-readable digest."""
        text = (
            f"{self.num_supersteps} supersteps, "
            f"{self.total_ops:.3g} ops, {self.total_bytes:.3g} bytes, "
            f"makespan {self.makespan * 1e3:.3f} ms"
        )
        if self.failures or self.checkpoint_bytes:
            text += (
                f" ({self.num_failures} failures, "
                f"recovery {self.recovery_time * 1e3:.3f} ms, "
                f"checkpoints {self.checkpoint_bytes:.3g} bytes)"
            )
        if self.losses:
            text += (
                f" ({self.losses} workers lost, "
                f"{self.promoted_masters} masters promoted, "
                f"{self.replaced_vertices} vertices re-placed, "
                f"failover {self.failover_time * 1e3:.3f} ms)"
            )
        return text
