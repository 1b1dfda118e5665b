"""The cost model (h_A, g_A) and fragment-level cost evaluation (Eqs. 1-3).

``CostModel`` bundles a computation cost function ``h`` and a
communication cost function ``g`` for one algorithm and evaluates:

* ``C_h(F_i)`` — Eq. 2: Σ over **non-dummy** copies of ``h(X(v))``;
* ``C_g(F_i)`` — Eq. 3: Σ over **master** border copies of ``g(X(v))``;
* ``C_A(F_i) = C_h(F_i) + C_g(F_i)`` — Eq. 1.

The parallel cost that application-driven partitioning minimizes is
``max_i C_A(F_i)`` (Section 3.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

from repro.costmodel.features import (
    FEATURE_NAMES,
    FeatureKey,
    copy_key,
    with_master,
)
from repro.costmodel.polynomial import PolynomialCostFunction
from repro.graph.metrics import average_degree
from repro.partition.hybrid import HybridPartition


@dataclass
class CostModel:
    """Cost model of one algorithm: ``(h_A, g_A)`` (Section 3.1).

    Attributes
    ----------
    name:
        Algorithm name (e.g. ``"cn"``).
    h:
        Computational cost polynomial.
    g:
        Communication cost polynomial.
    gate:
        Optional ``(feature, max_value)`` activity gate: vertices whose
        feature exceeds the bound incur **zero** cost.  Polynomials
        cannot express hard cutoffs, but algorithm variants like CN with
        a degree threshold θ skip such vertices entirely — the gate keeps
        the model faithful to the deployed variant (Example 1's "only
        vertices used in computation").
    """

    name: str
    h: PolynomialCostFunction
    g: PolynomialCostFunction
    gate: Optional[tuple] = None

    def _gated_out(self, features: Mapping[str, float]) -> bool:
        if self.gate is None:
            return False
        feature, bound = self.gate
        return features[feature] > bound

    def h_value(self, features: Mapping[str, float]) -> float:
        """``h_A(X(v))`` with the activity gate applied."""
        if self._gated_out(features):
            return 0.0
        return self.h.evaluate(features)

    def g_value(self, features: Mapping[str, float]) -> float:
        """``g_A(X(v))`` with the activity gate applied."""
        if self._gated_out(features):
            return 0.0
        return self.g.evaluate(features)

    def h_key(self, key: FeatureKey) -> float:
        """``h_value`` of a feature tuple in ``FEATURE_NAMES`` order.

        The refiners' entry point (DESIGN §8.2).  Wrappers that only
        count, memoize or forward override it to skip the mapping; a
        model that overrides :meth:`h_value` needs nothing else — this
        default hands it a mapping.
        """
        return self.h_value(dict(zip(FEATURE_NAMES, key)))

    def g_key(self, key: FeatureKey) -> float:
        """``g_value`` of a feature tuple (see :meth:`h_key`)."""
        return self.g_value(dict(zip(FEATURE_NAMES, key)))

    # ------------------------------------------------------------------
    # Per-vertex costs
    # ------------------------------------------------------------------
    def vertex_comp_cost(
        self,
        partition: HybridPartition,
        v: int,
        fid: int,
        avg_degree: Optional[float] = None,
    ) -> float:
        """``h_A(X(v))`` for the copy of ``v`` at ``fid`` (0 for dummies)."""
        bearing, key = copy_key(partition, v, fid, avg_degree)
        return self.h_key(key) if bearing else 0.0

    def comm_cost_if_master_at(
        self,
        partition: HybridPartition,
        v: int,
        fid: int,
        avg_degree: Optional[float] = None,
    ) -> float:
        """``g^j_A(v)``: communication cost if the master were at ``fid``.

        Used by MAssign's one-pass assignment rule (Eq. 5).
        """
        _bearing, key = copy_key(partition, v, fid, avg_degree)
        return self.g_key(with_master(key, True))

    def comp_master_delta(
        self,
        partition: HybridPartition,
        v: int,
        fid: int,
        avg_degree: Optional[float] = None,
    ) -> float:
        """Computation added to ``fid`` if it hosted the master of ``v``.

        The paper's MAssign never changes C_h because its h_A ignores the
        master placement; with the extended master indicator ``M`` in X
        (master-side merge work of CN/TC), moving a master moves that
        work, and Eq. 5's score must include the difference.  Zero for
        models without M terms and for non-bearing copies.
        """
        return self.master_delta_key(*copy_key(partition, v, fid, avg_degree))

    def master_delta_key(self, bearing: bool, key: FeatureKey) -> float:
        """:meth:`comp_master_delta` of a copy given as ``(bearing, key)``."""
        if not bearing:
            return 0.0
        return self.h_key(with_master(key, True)) - self.h_key(
            with_master(key, False)
        )

    # ------------------------------------------------------------------
    # Fragment-level costs
    # ------------------------------------------------------------------
    def fragment_comp_cost(self, partition: HybridPartition, fid: int) -> float:
        """``C_h(F_i)``: Eq. 2 over all non-dummy copies in the fragment.

        Vertices are visited in sorted order so the float sum is
        independent of the fragment's insertion history — a partition
        reloaded from the evaluation cache prices identically to the
        freshly computed one.
        """
        avg = average_degree(partition.graph)
        copies = (
            copy_key(partition, v, fid, avg)
            for v in sorted(partition.fragments[fid].vertices())
        )
        return sum(self.h_key(key) for bearing, key in copies if bearing)

    def fragment_comm_cost(self, partition: HybridPartition, fid: int) -> float:
        """``C_g(F_i)``: Eq. 3 over master border copies in the fragment.

        Sorted iteration for the same insertion-order independence as
        :meth:`fragment_comp_cost`.
        """
        avg = average_degree(partition.graph)
        total = 0.0
        for v in sorted(partition.fragments[fid].vertices()):
            if partition.is_border(v) and partition.master(v) == fid:
                total += self.g_key(copy_key(partition, v, fid, avg)[1])
        return total

    def fragment_cost(self, partition: HybridPartition, fid: int) -> float:
        """``C_A(F_i) = C_h(F_i) + C_g(F_i)`` (Eq. 1)."""
        return self.fragment_comp_cost(partition, fid) + self.fragment_comm_cost(
            partition, fid
        )

    def parallel_cost(self, partition: HybridPartition) -> float:
        """``max_i C_A(F_i)``: the objective of the ADP problem."""
        return max(
            self.fragment_cost(partition, fid)
            for fid in range(partition.num_fragments)
        )

    def describe(self) -> str:
        """Human-readable Table 5 style rendering of the model."""
        return f"h_{self.name} = {self.h}\ng_{self.name} = {self.g}"


def constant_cost_model(name: str = "uniform") -> CostModel:
    """A degenerate model charging 1 per vertex copy and 0 communication.

    This is the h_A/g_A of the NP-completeness reduction (Theorem 1) with
    g there being ``r(v) - 1``; see :mod:`repro.core.adp` for the exact
    reduction model.  It is also handy as a neutral baseline in tests.
    """
    from repro.costmodel.polynomial import Monomial

    h = PolynomialCostFunction([Monomial(1.0, {})], name=f"h_{name}")
    g = PolynomialCostFunction([Monomial(0.0, {})], name=f"g_{name}")
    return CostModel(name, h, g)
