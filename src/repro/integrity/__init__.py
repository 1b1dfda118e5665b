"""Guarded refinement: budgets, best-so-far snapshots, a post-pass check.

The refinement algorithms of Sections 5-6 trust two things: that the
learned cost model only ever returns sane numbers, and that a pass
finishes in reasonable time.  :mod:`~repro.integrity.guard` bounds the
second (step and wall-clock budgets that early-stop with the best
partition seen) and checks the result once after the pass; the cost
model's guardrails live in :mod:`repro.costmodel.guarded` (see
DESIGN.md §6).
"""

from repro.integrity.guard import (
    GuardConfig,
    GuardStats,
    RefinementBudgetExceeded,
    RefinementGuard,
)

__all__ = [
    "GuardConfig",
    "GuardStats",
    "RefinementBudgetExceeded",
    "RefinementGuard",
]
