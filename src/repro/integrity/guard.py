"""The guarded-refinement harness.

A :class:`RefinementGuard` sits between a refiner and its partition:

* the refiner calls :meth:`RefinementGuard.step` after every move;
* at a configurable cadence the guard runs the incremental watchdog,
  and on violations repairs the indexes locally (exact — fragment
  contents are ground truth) or rolls back to the last good serialized
  snapshot when repair cannot restore validity (lost fragment
  contents);
* clean checks refresh the last-good snapshot and track the best
  parallel cost seen, so step/wall-clock budget exhaustion degrades
  gracefully into "return the best valid partition so far" instead of
  an exception or garbage;
* optionally a :class:`~repro.integrity.chaos.PartitionChaos` driver is
  rolled per step, so the detect/repair/rollback machinery is exercised
  deterministically in tests and benchmarks.

All detection, repair, and snapshot work is timed and charged to
:class:`GuardStats` (surfaced as ``RefineStats.guard``), keeping the
guarded path's *partition output* bit-identical to the unguarded one
when no chaos is injected.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, Optional

from repro.integrity.chaos import ChaosPlan, PartitionChaos
from repro.integrity.repair import repair_indexes
from repro.integrity.watchdog import InvariantWatchdog
from repro.partition.hybrid import HybridPartition
from repro.partition.serialize import partition_to_dict, restore_partition_state
from repro.partition.validation import collect_violations


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
    check_interval:
        Refinement steps (moves) between incremental watchdog checks.
    snapshot_interval:
        Clean checks between last-good snapshots (1 = snapshot after
        every clean check; higher trades rollback granularity for less
        serialization overhead).
    chaos:
        Optional deterministic corruption plan, rolled once per step.
    max_steps / max_seconds:
        Budgets; when either is exceeded :meth:`RefinementGuard.step`
        raises :class:`RefinementBudgetExceeded` and the refiner
        early-stops with the best partition seen.
    coverage_checks:
        When ``False``, incremental checks and the post-repair sweep
        skip the global vertex/edge coverage invariants — required by
        the composite refiners, whose output partitions legitimately
        cover only part of the graph mid-construction.  The final
        ``finish()`` check always includes coverage.
    trace:
        Optional :class:`~repro.runtime.trace.FailureTrace` recorder;
        every injected corruption is appended to it (stream
        ``integrity``, scope = the guard's chaos salt).
    replay_trace:
        Optional recorded :class:`~repro.runtime.trace.FailureTrace`;
        corruptions are re-applied from it instead of drawn, even when
        ``chaos`` is absent or empty.
    """

    check_interval: int = 64
    snapshot_interval: int = 1
    chaos: Optional[ChaosPlan] = None
    max_steps: Optional[int] = None
    max_seconds: Optional[float] = None
    coverage_checks: bool = True
    trace: Optional[object] = None
    replay_trace: Optional[object] = None

    def __post_init__(self) -> None:
        if self.check_interval < 1:
            raise ValueError(
                f"check_interval must be >= 1, got {self.check_interval}"
            )
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
    checks: int = 0
    violations_detected: int = 0
    repairs: int = 0
    repaired_entries: int = 0
    rollbacks: int = 0
    corruptions_injected: int = 0
    snapshots: int = 0
    overhead_seconds: float = 0.0
    early_stopped: bool = False
    unrepaired_violations: int = 0
    cost_model_interventions: int = 0

    def note_cost_model_intervention(self) -> None:
        """Callback target for ``GuardedCostModel.on_intervention``."""
        self.cost_model_interventions += 1


class RefinementGuard:
    """Watchdog + snapshot + budget harness around one partition.

    Parameters
    ----------
    partition:
        The partition being refined (guarded in place).
    config:
        Cadence, chaos, and budget settings.
    stats:
        Accounting sink; a fresh :class:`GuardStats` by default.
    cost_fn:
        Zero-argument callable returning the current parallel cost;
        enables best-so-far tracking for graceful early stops.  Must be
        a pure read (the refiners pass a from-scratch model
        evaluation): querying an incremental ``CostTracker`` here would
        change its lazy-flush boundaries, perturbing the float
        accumulation order of the cached costs and breaking the
        bit-identity guarantee.
    chaos_salt:
        Decorrelates chaos draws when several guards share one plan
        (the composite refiners guard k outputs at once).
    """

    def __init__(
        self,
        partition: HybridPartition,
        config: GuardConfig,
        stats: Optional[GuardStats] = None,
        cost_fn: Optional[Callable[[], float]] = None,
        chaos_salt: str = "",
    ) -> None:
        self.partition = partition
        self.config = config
        self.stats = stats if stats is not None else GuardStats()
        self.cost_fn = cost_fn
        self.watchdog = InvariantWatchdog(partition)
        self.chaos = None
        if (
            config.chaos is not None and not config.chaos.is_empty
        ) or config.replay_trace is not None:
            self.chaos = PartitionChaos(
                config.chaos if config.chaos is not None else ChaosPlan(),
                salt=chaos_salt,
                trace=config.trace,
                replay=(
                    config.replay_trace.integrity_replay(chaos_salt)
                    if config.replay_trace is not None
                    else None
                ),
            )
        self._steps_since_check = 0
        self._clean_checks = 0
        self._started = time.perf_counter()
        self._last_good: Optional[Dict] = None
        self._best: Optional[Dict] = None
        self._best_cost = float("inf")
        self._finished = False
        start = time.perf_counter()
        try:
            self._snapshot()
        except BaseException:
            # cost_fn raised: do not leave the watchdog subscribed.
            self.watchdog.detach()
            raise
        self.stats.overhead_seconds += time.perf_counter() - start

    # ------------------------------------------------------------------
    def step(self, count: int = 1) -> None:
        """Record ``count`` refinement moves; check/inject/budget at cadence."""
        self.stats.steps += count
        self._steps_since_check += count
        if self.chaos is not None:
            corruption = self.chaos.maybe_corrupt(self.partition)
            if corruption is not None:
                self.stats.corruptions_injected += 1
        if self._steps_since_check >= self.config.check_interval:
            self._steps_since_check = 0
            start = time.perf_counter()
            self._check()
            self.stats.overhead_seconds += time.perf_counter() - start
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
        """Final full verification; restore best-so-far after early stops.

        Always leaves the partition valid: a final full check runs, and
        any residual violation is repaired or rolled back.  When
        ``early_stopped`` (a budget fired), the best-cost snapshot is
        restored if it beats the current state — the "best-so-far"
        guarantee.  Idempotent.
        """
        if self._finished:
            return self.stats
        self._finished = True
        start = time.perf_counter()
        if early_stopped:
            self.stats.early_stopped = True
        self._check(full=True, allow_snapshot=False)
        if (
            self.stats.early_stopped
            and self._best is not None
            and self.cost_fn is not None
        ):
            if self.cost_fn() > self._best_cost:
                restore_partition_state(self.partition, self._best)
                self.watchdog.clear()
        self.watchdog.detach()
        self.stats.overhead_seconds += time.perf_counter() - start
        return self.stats

    # ------------------------------------------------------------------
    def _check(self, full: bool = False, allow_snapshot: bool = True) -> None:
        self.stats.checks += 1
        violations = self.watchdog.check(
            full=full, coverage=self.config.coverage_checks
        )
        if violations:
            self.stats.violations_detected += len(violations)
            self._repair_or_rollback()
        elif allow_snapshot:
            self._clean_checks += 1
            if self._clean_checks % self.config.snapshot_interval == 0:
                self._snapshot()

    def _repair_or_rollback(self) -> None:
        reference_masters = None
        if self._last_good is not None:
            reference_masters = {
                int(v): int(fid)
                for v, fid in self._last_good["masters"].items()
            }
        repaired = repair_indexes(self.partition, reference_masters)
        self.stats.repairs += 1
        self.stats.repaired_entries += len(repaired)
        if self.config.coverage_checks:
            remaining = collect_violations(self.partition)
        else:
            # Under-construction partitions: verify index consistency
            # only, coverage cannot hold yet.
            remaining = collect_violations(
                self.partition, fragments=range(self.partition.num_fragments)
            )
        self.watchdog.clear()
        if not remaining:
            return
        if self._last_good is None:  # pragma: no cover - snapshot at init
            self.stats.unrepaired_violations += len(remaining)
            return
        restore_partition_state(self.partition, self._last_good)
        self.stats.rollbacks += 1
        self.watchdog.clear()
        residual = collect_violations(self.partition)
        self.stats.unrepaired_violations += len(residual)

    def _snapshot(self) -> None:
        data = partition_to_dict(self.partition)
        self.stats.snapshots += 1
        self._last_good = data
        if self.cost_fn is not None:
            cost = self.cost_fn()
            if cost < self._best_cost:
                self._best_cost = cost
                self._best = data
