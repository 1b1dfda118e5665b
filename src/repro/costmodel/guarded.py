"""Cost-model guardrails: never let a bad prediction steer a move.

A learned cost model is an untrusted oracle: polynomial extrapolation on
out-of-distribution features can return ``nan``/``inf`` (e.g. after a
division in a learned feature pipeline), negative costs, or numbers so
large every move comparison degenerates.  :class:`GuardedCostModel`
wraps any :class:`~repro.costmodel.model.CostModel` and intercepts every
``h``/``g`` evaluation — the two funnels all fragment/vertex/delta
costs flow through — replacing insane predictions with a fallback
analytic model's prediction (the Table 5 polynomial of the same
algorithm when available) and counting the intervention.

The guarantee the guarded refiners rely on: **no non-finite or negative
value ever reaches move selection.**
"""

from __future__ import annotations

import math
from typing import Callable, Mapping, Optional

from repro.costmodel.library import ALGORITHMS, builtin_cost_model
from repro.costmodel.model import CostModel

#: Predictions above this are considered runaway extrapolation.  The
#: Table 5 coefficients are in milliseconds; even a billion-vertex
#: fragment stays many orders of magnitude below this bound.
DEFAULT_MAX_VALUE = 1e15


class GuardedCostModel(CostModel):
    """A :class:`CostModel` whose every prediction is sanity-checked.

    Because all inherited cost methods (fragment costs, MAssign scores,
    master deltas, parallel cost) route through :meth:`h_value` and
    :meth:`g_value`, overriding just those two guards the whole API.
    Each asks the wrapped ``base`` model's own ``h_value`` / ``g_value``,
    so a model that overrides them (DESIGN §8.2) keeps its override.

    Attributes
    ----------
    base:
        The guarded model.
    fallback:
        Analytic model answering when the primary misbehaves; ``None``
        degrades to a clamped ``0.0`` / ``max_value``.
    max_value:
        Upper bound of the sane prediction range ``[0, max_value]``.
    interventions:
        Count of predictions replaced so far.
    on_intervention:
        Optional callback fired once per replaced prediction (the
        guarded refiners use it to charge ``GuardStats``).
    """

    def __init__(
        self,
        base: CostModel,
        fallback: Optional[CostModel] = None,
        max_value: float = DEFAULT_MAX_VALUE,
        on_intervention: Optional[Callable[[], None]] = None,
    ) -> None:
        if not (math.isfinite(max_value) and max_value > 0):
            raise ValueError(f"max_value must be finite and > 0, got {max_value}")
        super().__init__(name=base.name, h=base.h, g=base.g, gate=base.gate)
        self.base = base
        self.fallback = fallback
        self.max_value = max_value
        self.interventions = 0
        self.on_intervention = on_intervention

    # ------------------------------------------------------------------
    def _sane(self, value: float) -> bool:
        return math.isfinite(value) and 0.0 <= value <= self.max_value

    def _guarded(
        self, value: float, features: Mapping[str, float], which: str
    ) -> float:
        if self._sane(value):
            return value
        self.interventions += 1
        if self.on_intervention is not None:
            self.on_intervention()
        if self.fallback is not None:
            substitute = (
                self.fallback.h_value(features)
                if which == "h"
                else self.fallback.g_value(features)
            )
            if self._sane(substitute):
                return substitute
        # No (sane) fallback: clamp into range deterministically.
        if not math.isfinite(value):
            return 0.0
        return min(max(value, 0.0), self.max_value)

    def h_value(self, features: Mapping[str, float]) -> float:
        """Guarded ``h_A(X(v))``: always finite and in ``[0, max_value]``."""
        return self._guarded(self.base.h_value(features), features, "h")

    def g_value(self, features: Mapping[str, float]) -> float:
        """Guarded ``g_A(X(v))``: always finite and in ``[0, max_value]``."""
        return self._guarded(self.base.g_value(features), features, "g")


def guard_cost_model(
    model: CostModel,
    fallback: Optional[CostModel] = None,
    max_value: float = DEFAULT_MAX_VALUE,
    on_intervention: Optional[Callable[[], None]] = None,
) -> GuardedCostModel:
    """Wrap ``model`` in guardrails (idempotent).

    When ``fallback`` is omitted and the model is named after one of the
    built-in algorithms, the matching Table 5 analytic model becomes the
    fallback — the "simple polynomial we trust" a deployment would pin
    next to its learned model.
    """
    if isinstance(model, GuardedCostModel):
        return model
    if fallback is None and model.name in ALGORITHMS:
        fallback = builtin_cost_model(model.name)
    return GuardedCostModel(model, fallback, max_value, on_intervention)
