"""Declarative fault plans for the BSP simulator.

The paper's measurements come from a 32-machine shared-nothing cluster
(Section 7) where worker crashes, lost machines and stragglers are facts
of life.  A :class:`FaultPlan` declares what goes wrong in one run —
crash worker ``w`` at the end of superstep ``s``, lose worker ``w`` for
good, slow worker ``w`` down over a superstep window — so a faulty run
is its own record: the same plan gives the same run, bit for bit.

Faults never change *results*.  A crash triggers rollback recovery (see
:mod:`repro.runtime.checkpoint` and :meth:`repro.runtime.bsp.Cluster.deliver`);
a :class:`PermanentLossFault` makes the cluster fail over onto the
survivors (see :mod:`repro.runtime.failover`); a straggler stretches
its worker's superstep time.  Only the profile and the makespan change.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Tuple


@dataclass(frozen=True)
class CrashFault:
    """Worker ``worker`` fails at the end of superstep ``superstep``."""

    worker: int
    superstep: int

    def __post_init__(self) -> None:
        if self.worker < 0:
            raise ValueError(f"crash worker must be >= 0, got {self.worker}")
        if self.superstep < 0:
            raise ValueError(
                f"crash superstep must be >= 0, got {self.superstep}"
            )


@dataclass(frozen=True)
class PermanentLossFault:
    """Worker ``worker`` is lost for good at the end of ``superstep``.

    Unlike a :class:`CrashFault` the worker never comes back: the
    cluster restores surviving state from the last checkpoint, promotes
    surviving mirrors to masters, re-places vertices whose only copy
    died, and continues on N−1 workers
    (:meth:`repro.runtime.bsp.Cluster.deliver`).
    """

    worker: int
    superstep: int

    def __post_init__(self) -> None:
        if self.worker < 0:
            raise ValueError(f"loss worker must be >= 0, got {self.worker}")
        if self.superstep < 0:
            raise ValueError(
                f"loss superstep must be >= 0, got {self.superstep}"
            )


@dataclass(frozen=True)
class StragglerFault:
    """Worker ``worker`` runs ``factor``× slower on supersteps in range.

    ``start`` is inclusive and ``until`` exclusive; ``until=None`` means
    the slowdown lasts for the rest of the run.
    """

    worker: int
    factor: float
    start: int = 0
    until: Optional[int] = None

    def __post_init__(self) -> None:
        if self.worker < 0:
            raise ValueError(f"straggler worker must be >= 0, got {self.worker}")
        if not (self.factor >= 1.0) or math.isinf(self.factor):
            raise ValueError(
                f"straggler factor must be a finite value >= 1, got {self.factor}"
            )
        if self.start < 0:
            raise ValueError(f"straggler start must be >= 0, got {self.start}")
        if self.until is not None and self.until <= self.start:
            raise ValueError(
                f"straggler window [{self.start}, {self.until}) is empty; "
                "until must be > start (or None for the rest of the run)"
            )

    def active(self, superstep: int) -> bool:
        """Whether the slowdown applies at ``superstep``."""
        return self.start <= superstep and (
            self.until is None or superstep < self.until
        )


@dataclass(frozen=True)
class FaultPlan:
    """A declarative schedule of substrate faults.

    Attributes
    ----------
    crashes:
        Transient worker failures; each fires at the end of its
        superstep, and the worker returns after rollback recovery.
    losses:
        Permanent worker failures; the worker never returns (the
        cluster fails over onto the survivors), so no worker is lost
        twice and none crashes after its loss.
    stragglers:
        Per-worker slowdown multipliers over superstep windows.
    """

    crashes: Tuple[CrashFault, ...] = ()
    stragglers: Tuple[StragglerFault, ...] = ()
    losses: Tuple[PermanentLossFault, ...] = ()

    def __post_init__(self) -> None:
        # Tolerate lists for ergonomic construction.
        object.__setattr__(self, "crashes", tuple(self.crashes))
        object.__setattr__(self, "stragglers", tuple(self.stragglers))
        object.__setattr__(self, "losses", tuple(self.losses))
        seen: Dict[int, PermanentLossFault] = {}
        for loss in self.losses:
            if loss.worker in seen:
                raise ValueError(
                    f"fault plan loses worker {loss.worker} twice "
                    f"({seen[loss.worker]} and {loss}); a worker can only "
                    "be lost once"
                )
            seen[loss.worker] = loss
        for crash in self.crashes:
            loss = seen.get(crash.worker)
            if loss is not None and crash.superstep > loss.superstep:
                raise ValueError(
                    f"fault plan crashes worker {crash.worker} ({crash}) "
                    f"after losing it ({loss}); a lost worker cannot crash"
                )

    @property
    def is_empty(self) -> bool:
        """True when the plan injects nothing at all."""
        return not (self.crashes or self.losses or self.stragglers)

    def straggler_factor(self, worker: int, superstep: int) -> float:
        """Combined slowdown multiplier for ``worker`` at ``superstep``."""
        factor = 1.0
        for straggler in self.stragglers:
            if straggler.worker == worker and straggler.active(superstep):
                factor *= straggler.factor
        return factor

    def validate_for(self, num_workers: int) -> None:
        """Check every named worker exists in an ``num_workers`` cluster.

        Raises ``ValueError`` naming the offending fault; silently
        no-op'ing a fault aimed at a nonexistent worker would make a
        "faulty" run quietly clean.
        """
        for crash in self.crashes:
            if crash.worker >= num_workers:
                raise ValueError(
                    f"fault plan crashes worker {crash.worker} ({crash}), "
                    f"but the cluster has only {num_workers} workers"
                )
        for loss in self.losses:
            if loss.worker >= num_workers:
                raise ValueError(
                    f"fault plan permanently loses worker {loss.worker} "
                    f"({loss}), but the cluster has only {num_workers} workers"
                )
        for straggler in self.stragglers:
            if straggler.worker >= num_workers:
                raise ValueError(
                    f"fault plan slows worker {straggler.worker} "
                    f"({straggler}), but the cluster has only "
                    f"{num_workers} workers"
                )
        if self.losses and len({l.worker for l in self.losses}) >= num_workers:
            raise ValueError(
                f"fault plan permanently loses all {num_workers} workers; "
                "at least one must survive to fail over onto"
            )

