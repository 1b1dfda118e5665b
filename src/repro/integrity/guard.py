"""The guarded-refinement harness (DESIGN §6).

A :class:`RefinementGuard` sits between a refiner and its partition:

* the refiner calls :meth:`RefinementGuard.step` after every move, and
  the guard enforces the step and wall-clock budgets;
* every ``snapshot_interval`` moves it serializes the partition and
  keeps the cheapest state seen, so a budget stop degrades into "return
  the best valid partition so far" instead of an exception;
* :meth:`RefinementGuard.finish` runs one full
  :func:`~repro.partition.validation.check_partition` over the result.

The refiners' moves each leave a valid partition (Section 2), so the
post-pass check raises rather than repairs: a violation is a refiner
bug.  The guard puts no listener on the partition and only reads it
until a budget stop restores a snapshot, so a pass that finishes within
its budgets returns the partition an unguarded pass would.  Snapshot
and check time is charged to :class:`GuardStats` (surfaced as
``RefineStats.guard``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, Optional

from repro.partition.hybrid import HybridPartition
from repro.partition.serialize import partition_to_dict, restore_partition_state
from repro.partition.validation import check_partition


class RefinementBudgetExceeded(Exception):
    """Raised by the guard when a step or wall-clock budget runs out.

    Control flow only: the refiners catch it, stop refining gracefully,
    and hand back the best valid partition seen so far.
    """


@dataclass(frozen=True)
class GuardConfig:
    """Configuration of one guarded refinement.

    Attributes
    ----------
    snapshot_interval:
        Refinement steps (moves) between best-so-far snapshots.
    max_steps / max_seconds:
        Budgets; when either is exceeded :meth:`RefinementGuard.step`
        raises :class:`RefinementBudgetExceeded` and the refiner
        early-stops with the best partition seen.
    """

    snapshot_interval: int = 64
    max_steps: Optional[int] = None
    max_seconds: Optional[float] = None

    def __post_init__(self) -> None:
        if self.snapshot_interval < 1:
            raise ValueError(
                f"snapshot_interval must be >= 1, got {self.snapshot_interval}"
            )
        if self.max_steps is not None and self.max_steps < 1:
            raise ValueError(f"max_steps must be >= 1, got {self.max_steps}")
        if self.max_seconds is not None and not self.max_seconds > 0:
            raise ValueError(
                f"max_seconds must be > 0, got {self.max_seconds}"
            )


@dataclass
class GuardStats:
    """Overhead and outcome accounting of one guarded refinement."""

    steps: int = 0
    snapshots: int = 0
    overhead_seconds: float = 0.0
    early_stopped: bool = False
    cost_model_interventions: int = 0

    def note_cost_model_intervention(self) -> None:
        """Callback target for ``GuardedCostModel.on_intervention``."""
        self.cost_model_interventions += 1


class RefinementGuard:
    """Budgets, best-so-far snapshots and a post-pass check around one partition.

    Parameters
    ----------
    partition:
        The partition being refined (in place).
    config:
        Snapshot cadence and budgets.
    stats:
        Accounting sink; a fresh :class:`GuardStats` by default.
    cost_fn:
        Zero-argument callable returning the current parallel cost;
        enables best-so-far snapshots.  Without it (a composite output
        built up from empty has no earlier valid state to fall back to)
        the guard takes none.  Must be a pure read (the refiners pass a
        from-scratch model evaluation): querying an incremental
        ``CostTracker`` here would change its lazy-flush boundaries,
        perturbing the float accumulation order of the cached costs and
        breaking the bit-identity guarantee.
    """

    def __init__(
        self,
        partition: HybridPartition,
        config: GuardConfig,
        stats: Optional[GuardStats] = None,
        cost_fn: Optional[Callable[[], float]] = None,
    ) -> None:
        self.partition = partition
        self.config = config
        self.stats = stats if stats is not None else GuardStats()
        self.cost_fn = cost_fn
        self._steps_since_snapshot = 0
        self._started = time.perf_counter()
        self._best: Optional[Dict] = None
        self._best_cost = float("inf")
        self._finished = False
        self._snapshot()

    # ------------------------------------------------------------------
    def step(self, count: int = 1) -> None:
        """Record ``count`` refinement moves; snapshot and budget at cadence."""
        self.stats.steps += count
        self._steps_since_snapshot += count
        if self._steps_since_snapshot >= self.config.snapshot_interval:
            self._steps_since_snapshot = 0
            self._snapshot()
        if (
            self.config.max_steps is not None
            and self.stats.steps >= self.config.max_steps
        ):
            raise RefinementBudgetExceeded(
                f"step budget exhausted ({self.stats.steps} >= {self.config.max_steps})"
            )
        if (
            self.config.max_seconds is not None
            and time.perf_counter() - self._started > self.config.max_seconds
        ):
            raise RefinementBudgetExceeded(
                f"wall-clock budget exhausted (> {self.config.max_seconds}s)"
            )

    def finish(self, early_stopped: bool = False) -> GuardStats:
        """Restore best-so-far after an early stop, then check the result.

        When ``early_stopped`` (a budget fired), the best-cost snapshot
        is restored if it beats the current state.  Then one full
        :func:`~repro.partition.validation.check_partition` runs; a
        violation raises
        :class:`~repro.partition.validation.PartitionInvariantError`.
        Idempotent.
        """
        if self._finished:
            return self.stats
        self._finished = True
        start = time.perf_counter()
        if early_stopped:
            self.stats.early_stopped = True
            if self._best is not None and self.cost_fn() > self._best_cost:
                restore_partition_state(self.partition, self._best)
        check_partition(self.partition)
        self.stats.overhead_seconds += time.perf_counter() - start
        return self.stats

    # ------------------------------------------------------------------
    def _snapshot(self) -> None:
        if self.cost_fn is None:
            return
        start = time.perf_counter()
        data = partition_to_dict(self.partition)
        self.stats.snapshots += 1
        cost = self.cost_fn()
        if cost < self._best_cost:
            self._best_cost = cost
            self._best = data
        self.stats.overhead_seconds += time.perf_counter() - start
