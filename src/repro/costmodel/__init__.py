"""Cost models for graph algorithms (Sections 3.1 and 4).

A cost model for an algorithm ``A`` is a pair of multivariate functions
``(h_A, g_A)`` over the metric variable set

    X = {d⁺_L, d⁻_L, d⁺_G, d⁻_G, r, D}

(plus the e-cut indicator ``I`` used by g_TC).  ``h_A`` estimates the
computational cost a vertex copy incurs, ``g_A`` the communication cost a
master copy incurs.  Both are polynomials — learned with SGD on the MSRE
loss from instrumented runs (:mod:`~repro.costmodel.training`), or taken
from the paper's published Table 5 (:mod:`~repro.costmodel.library`).
"""

from repro.costmodel.features import FEATURE_NAMES, vertex_features
from repro.costmodel.polynomial import Monomial, PolynomialCostFunction
from repro.costmodel.model import CostModel
from repro.costmodel.training import SGDTrainer, TrainingReport, fit_cost_function
from repro.costmodel.library import builtin_cost_model, builtin_cost_models
from repro.costmodel.trained import trained_cost_model, trained_cost_models
from repro.costmodel.collection import TrainingSample, collect_training_data

__all__ = [
    "FEATURE_NAMES",
    "vertex_features",
    "Monomial",
    "PolynomialCostFunction",
    "CostModel",
    "SGDTrainer",
    "TrainingReport",
    "fit_cost_function",
    "builtin_cost_model",
    "builtin_cost_models",
    "trained_cost_model",
    "trained_cost_models",
    "TrainingSample",
    "collect_training_data",
]
