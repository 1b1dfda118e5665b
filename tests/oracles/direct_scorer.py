"""The uncached reference scorer, and the stand-in that installs it.

``RefineSession`` always prices moves through a
:class:`~repro.core.gaincache.GainCache`.  :class:`DirectScorer` answers
the same questions straight off the tracker, with no memory, and
:func:`use_direct_scorer` swaps :class:`DirectGainCache` in for the
``GainCache`` the driver builds — so a test runs the very refiner code
under the oracle scorer and compares partitions, costs and move
sequences bit for bit.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple


class DirectScorer:
    """The uncached reference scorer: every answer straight off the tracker.

    Same surface as a bound :class:`~repro.core.gaincache.GainCache`, no
    memory: each call is the evaluation the cache is exact against, at
    the same tracker flush boundaries.
    """

    def __init__(self, tracker) -> None:
        self.tracker = tracker
        self.price_as_ecut = tracker.price_as_ecut

    def merged_price(self, v: int, src: int, dst: int, compute) -> float:
        """VMigrate merged price: always ``compute()``."""
        return compute()

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

    def master_delta(self, v: int, fid: int) -> float:
        """Δh of mastering ``v`` at ``fid``."""
        tracker = self.tracker
        return tracker.cost_model.comp_master_delta(
            tracker.partition, v, fid, tracker.avg_degree
        )

    def cheapest(self) -> int:
        """``argmin_i load(F_i)``, lowest fragment id among ties."""
        tracker = self.tracker
        return min(range(tracker.partition.num_fragments), key=tracker.load)

    def ascending(self, fids: Sequence[int]) -> List[int]:
        """``fids`` by ascending load (stable: ties keep id order)."""
        return sorted(fids, key=self.tracker.load)


class DirectGainCache(DirectScorer):
    """A ``GainCache`` look-alike that memoizes nothing.

    Same lifecycle as the cache: ``model`` is the model it was given
    (no value memo), :meth:`bind` makes it a :class:`DirectScorer` over
    the session's tracker, :meth:`detach` has no listener to drop, and
    ``stats`` is ``None`` — there is no cache to count.
    """

    stats = None

    def __init__(self, partition, model) -> None:
        self.model = model

    def bind(self, tracker) -> None:
        DirectScorer.__init__(self, tracker)

    def detach(self) -> None:
        pass


def use_direct_scorer(monkeypatch) -> None:
    """Make every ``RefineSession`` opened under ``monkeypatch`` score
    through :class:`DirectScorer`."""
    from repro.core import driver

    monkeypatch.setattr(driver, "GainCache", DirectGainCache)
