"""The uncached reference scorer, and the stand-ins that install it.

``RefineSession`` always prices moves off its
:class:`~repro.core.tracker.CostTracker` over a value memo.
:class:`DirectScorer` answers the same questions with no memo — Eq. 5
pairs through the mapping-based model methods — and
:func:`use_direct_scorer` swaps :class:`DirectTracker` (a tracker whose
answers are :class:`DirectScorer`'s) and an unmemoized model in for the
ones the driver builds — so a test runs the very refiner code under the
oracle scorer and compares partitions, costs and move sequences bit for
bit.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.core.tracker import CostTracker
from repro.costmodel.model import CostModel


class DirectScorer:
    """The uncached reference scorer: every answer straight off the tracker.

    Same surface as the tracker's ``price_as_ecut`` / ``host_scores`` /
    ``cheapest`` / ``ascending``, no memo: each call is the evaluation
    the tracker is exact against, at the same flush boundaries.
    """

    def __init__(self, tracker) -> None:
        self.tracker = tracker
        self.price_as_ecut = tracker.price_as_ecut

    def host_scores(self, v: int, hosts: Sequence[int]) -> List[Tuple[float, float]]:
        """Eq. 5 pairs ``(g^j_A(v), Δh master)`` of ``v``, one per host."""
        tracker = self.tracker
        model, partition = tracker.cost_model, tracker.partition
        avg = tracker.avg_degree
        return [
            (
                model.comm_cost_if_master_at(partition, v, fid, avg),
                model.comp_master_delta(partition, v, fid, avg),
            )
            for fid in hosts
        ]

    def cheapest(self) -> int:
        """``argmin_i load(F_i)``, lowest fragment id among ties."""
        tracker = self.tracker
        return min(range(tracker.partition.num_fragments), key=tracker.load)

    def ascending(self, fids: Sequence[int]) -> List[int]:
        """``fids`` by ascending load (stable: ties keep id order)."""
        return sorted(fids, key=self.tracker.load)


class DirectTracker(CostTracker):
    """A :class:`CostTracker` whose pricing answers are :class:`DirectScorer`'s."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        direct = DirectScorer(self)
        self.host_scores, self.cheapest, self.ascending = (
            direct.host_scores, direct.cheapest, direct.ascending
        )


class UnmemoizedModel(CostModel):
    """A passthrough over ``base`` with no value memo: ``stats`` is
    ``None`` — there is nothing to count."""

    stats = None

    def __init__(self, base: CostModel) -> None:
        super().__init__(name=base.name, h=base.h, g=base.g, gate=base.gate)
        self.base = base

    def h_value(self, features):
        return self.base.h_value(features)

    def g_value(self, features):
        return self.base.g_value(features)

    def h_key(self, key):
        return self.base.h_key(key)

    def g_key(self, key):
        return self.base.g_key(key)


def use_direct_scorer(monkeypatch) -> None:
    """Make every ``RefineSession`` opened under ``monkeypatch`` score
    through :class:`DirectScorer`."""
    from repro.core import driver

    monkeypatch.setattr(driver, "memoize_cost_model", UnmemoizedModel)
    monkeypatch.setattr(driver, "CostTracker", DirectTracker)
