"""Tests for GuardedCostModel: no insane prediction reaches a caller."""

import math

import pytest

from repro.costmodel.guarded import (
    DEFAULT_MAX_VALUE,
    GuardedCostModel,
    guard_cost_model,
)
from repro.costmodel.library import builtin_cost_model
from repro.costmodel.model import CostModel, constant_cost_model

FEATURES = {
    "d_in_L": 2.0,
    "d_out_L": 3.0,
    "d_in_G": 4.0,
    "d_out_G": 5.0,
    "r": 2.0,
    "D": 6.0,
    "I": 1.0,
    "d_L": 5.0,
    "d_G": 9.0,
    "M": 1.0,
}


class _FixedPoly:
    """A 'polynomial' returning one fixed value — broken models on demand."""

    def __init__(self, value: float) -> None:
        self.value = value

    def evaluate(self, features) -> float:
        return self.value


def broken_model(value: float, name: str = "pr") -> CostModel:
    return CostModel(name, _FixedPoly(value), _FixedPoly(value))


def test_sane_predictions_pass_through_unchanged():
    model = builtin_cost_model("pr")
    guarded = guard_cost_model(model)
    assert guarded.h_value(FEATURES) == model.h_value(FEATURES)
    assert guarded.g_value(FEATURES) == model.g_value(FEATURES)
    assert guarded.interventions == 0


@pytest.mark.parametrize(
    "bad", [float("nan"), float("inf"), float("-inf"), -1.0, 1e20]
)
def test_insane_predictions_replaced_by_fallback(bad):
    guarded = guard_cost_model(broken_model(bad, name="pr"))
    fallback = builtin_cost_model("pr")
    value = guarded.h_value(FEATURES)
    assert value == fallback.h_value(FEATURES)
    assert math.isfinite(value) and value >= 0
    assert guarded.g_value(FEATURES) == fallback.g_value(FEATURES)
    assert guarded.interventions == 2


def test_clamping_without_fallback():
    # An unknown algorithm name has no Table 5 fallback: clamp instead.
    assert guard_cost_model(broken_model(float("nan"), "??")).h_value(FEATURES) == 0.0
    assert guard_cost_model(broken_model(float("inf"), "??")).h_value(FEATURES) == 0.0
    assert guard_cost_model(broken_model(-7.0, "??")).h_value(FEATURES) == 0.0
    assert (
        guard_cost_model(broken_model(1e20, "??")).h_value(FEATURES)
        == DEFAULT_MAX_VALUE
    )


def test_intervention_callback_fires():
    fired = []
    guarded = guard_cost_model(
        broken_model(float("nan")), on_intervention=lambda: fired.append(1)
    )
    guarded.h_value(FEATURES)
    guarded.h_value(FEATURES)
    assert len(fired) == 2
    assert guarded.interventions == 2


class DoubledModel(CostModel):
    """A model that overrides the ``h_value`` / ``g_value`` funnels."""

    def h_value(self, features) -> float:
        return 2.0 * super().h_value(features)

    def g_value(self, features) -> float:
        return 2.0 * super().g_value(features)


def test_the_guard_calls_the_model_it_guards():
    base = builtin_cost_model("pr")
    model = DoubledModel(base.name, base.h, base.g, base.gate)
    guarded = guard_cost_model(model)
    assert guarded.h_value(FEATURES) == model.h_value(FEATURES) == 2.0 * base.h_value(FEATURES)
    assert guarded.g_value(FEATURES) == model.g_value(FEATURES) == 2.0 * base.g_value(FEATURES)
    assert guarded.base is model
    assert guarded.interventions == 0


def test_guard_is_idempotent():
    guarded = guard_cost_model(constant_cost_model())
    assert guard_cost_model(guarded) is guarded


def test_max_value_validation():
    with pytest.raises(ValueError, match="max_value"):
        guard_cost_model(constant_cost_model(), max_value=0.0)
    with pytest.raises(ValueError, match="max_value"):
        guard_cost_model(constant_cost_model(), max_value=float("inf"))


def test_explicit_fallback_wins():
    fallback = constant_cost_model()
    guarded = guard_cost_model(broken_model(float("nan"), "pr"), fallback=fallback)
    assert guarded.h_value(FEATURES) == fallback.h_value(FEATURES)


def test_fragment_costs_route_through_guards(power_graph):
    # The whole CostModel API funnels through h_value/g_value, so a
    # broken model behind guardrails still yields finite fragment costs.
    from tests.conftest import make_edge_cut

    partition = make_edge_cut(power_graph, 4)
    guarded = guard_cost_model(broken_model(float("nan"), "pr"))
    assert isinstance(guarded, GuardedCostModel)
    cost = guarded.parallel_cost(partition)
    assert math.isfinite(cost) and cost >= 0
    assert guarded.interventions > 0
