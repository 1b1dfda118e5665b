"""The refiners' scorer: reads off the tracker over a value memo (DESIGN.md §8).

The refiners re-score move candidates against the cost model on every
iteration — ``price_as_ecut`` per EMigrate attempt, merged prices per
VMigrate destination, Eq. 5 scores per MAssign host — and every score
bottoms out in a polynomial evaluation over the copy's metric variables.

:class:`MemoizedCostModel` removes the redundant evaluations: ``h_A`` /
``g_A`` are pure functions of the feature vector, so their values are
memoized on the exact feature tuple.  Identical inputs return the
previously computed float; the polynomial is only evaluated on distinct
feature profiles (power-law graphs share profiles massively across their
low-degree tails).

:class:`GainCache` is the scorer above it.  It keeps no per-vertex state
and listens to nothing: every answer is read straight off the session's
:class:`~repro.core.tracker.CostTracker`, priced through that memo, at
the tracker flush boundaries the uncached ``DirectScorer`` oracle
(``tests/oracles/direct_scorer.py``) takes, so partitions and tracked
costs agree with it bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

from repro.costmodel.features import FEATURE_NAMES, copy_keys, with_master
from repro.costmodel.model import CostModel

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.core.tracker import CostTracker
    from repro.partition.hybrid import HybridPartition

#: Sentinel distinguishing "absent" from a memoized value (values may be
#: any float, including 0.0 and NaN-free negatives a guard clamps to).
_MISS = object()

#: Per-memo entry bound.  Distinct feature profiles are bounded by the
#: graph's degree spectrum in practice; the cap only guards pathological
#: inputs (e.g. NaN features, which never compare equal and would
#: otherwise accumulate duplicate keys).
DEFAULT_MAX_ENTRIES = 1 << 20


@dataclass
class GainCacheStats:
    """Value-memo counters, surfaced on ``RefineStats.gain_cache``.

    ``value_*`` count the feature-tuple memo in front of the polynomial
    evaluator (``value_misses`` = polynomials actually evaluated through
    the memo); ``evictions`` counts memo entries discarded when a memo
    table hits its size bound.
    """

    value_hits: int = 0
    value_misses: int = 0
    evictions: int = 0

    @property
    def hits(self) -> int:
        """Lookups answered from the memo."""
        return self.value_hits

    @property
    def misses(self) -> int:
        """Lookups that fell through to a polynomial evaluation."""
        return self.value_misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served without recomputation."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def as_dict(self) -> Dict[str, float]:
        """JSON-serializable summary (benchmarks, CLI reporting)."""
        return {
            "value_hits": self.value_hits,
            "value_misses": self.value_misses,
            "evictions": self.evictions,
            "hit_rate": round(self.hit_rate, 4),
        }


class MemoizedCostModel(CostModel):
    """A :class:`CostModel` whose ``h``/``g`` evaluations are memoized.

    The polynomials (and the activity gate) are pure functions of the
    feature mapping, so the memo key is the exact tuple of feature
    values in :data:`~repro.costmodel.features.FEATURE_NAMES` order and
    a hit returns the very float a fresh evaluation would produce.  All
    inherited cost methods route through ``h_value``/``g_value`` (the
    same funnel :class:`~repro.costmodel.guarded.GuardedCostModel`
    relies on), so fragment costs, MAssign scores, and master deltas are
    memoized without further plumbing.

    Delegation goes through the wrapped ``base`` model, preserving any
    guardrail semantics stacked below (values stay identical; a guarded
    base counts interventions per *distinct* evaluation rather than per
    request — see DESIGN.md §8).
    """

    def __init__(
        self,
        base: CostModel,
        stats: Optional[GainCacheStats] = None,
        max_entries: int = DEFAULT_MAX_ENTRIES,
    ) -> None:
        super().__init__(name=base.name, h=base.h, g=base.g, gate=base.gate)
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.base = base
        self.stats = stats if stats is not None else GainCacheStats()
        self.max_entries = max_entries
        self._memo_h: Dict[tuple, float] = {}
        self._memo_g: Dict[tuple, float] = {}
        #: :meth:`h_value` / :meth:`g_value` of a ready-made key.
        self.h_key, self.g_key = self.keyed("h"), self.keyed("g")

    #: Memo key of a feature mapping (the Mapping entry points only; the
    #: refiners arrive through ``h_key``/``g_key`` with the key in hand).
    _key_getter = staticmethod(itemgetter(*FEATURE_NAMES))

    def _lookup(self, memo: Dict[tuple, float], key, features, compute) -> float:
        """Memoized ``compute``; only a miss materializes the mapping."""
        stats = self.stats
        value = memo.get(key, _MISS)
        if value is _MISS:
            stats.value_misses += 1
            if features is None:
                features = dict(zip(FEATURE_NAMES, key))
            value = compute(features)
            if len(memo) >= self.max_entries:
                stats.evictions += len(memo)
                memo.clear()
            memo[key] = value
        else:
            stats.value_hits += 1
        return value

    def _memoized(self, memo: Dict[tuple, float], features, compute) -> float:
        try:
            key = self._key_getter(features)
        except KeyError:
            # Unknown feature layout (extended models): skip memoization.
            self.stats.value_misses += 1
            return compute(features)
        return self._lookup(memo, key, features, compute)

    def h_value(self, features) -> float:
        """Memoized ``h_A(X(v))`` (bit-identical to the base model's)."""
        return self._memoized(self._memo_h, features, self.base.h_value)

    def g_value(self, features) -> float:
        """Memoized ``g_A(X(v))`` (bit-identical to the base model's)."""
        return self._memoized(self._memo_g, features, self.base.g_value)

    def keyed(self, which: str, counter=None) -> Callable[[tuple], float]:
        """``h_key`` (``which="h"``) or ``g_key`` as a closure that answers a
        hit — nine requests in ten — in its own frame; a miss takes
        :meth:`_lookup`, which builds the mapping.  ``counter.calls``, when
        given (the session's :class:`~repro.core.dirty.RescoringModel`), is
        bumped per request in that same frame."""
        memo = self._memo_h if which == "h" else self._memo_g
        compute = self.base.h_value if which == "h" else self.base.g_value
        stats, lookup = self.stats, self._lookup

        def price(key: tuple) -> float:
            if counter is not None:
                counter.calls += 1
            value = memo.get(key, _MISS)
            if value is _MISS:
                return lookup(memo, key, None, compute)
            stats.value_hits += 1
            return value

        return price


def memoize_cost_model(
    model: CostModel,
    stats: Optional[GainCacheStats] = None,
    max_entries: int = DEFAULT_MAX_ENTRIES,
) -> MemoizedCostModel:
    """Wrap ``model`` in a value memo (idempotent)."""
    if isinstance(model, MemoizedCostModel):
        return model
    return MemoizedCostModel(model, stats=stats, max_entries=max_entries)


class GainCache:
    """The refiners' scorer (DESIGN.md §8): answers read off the tracker.

    Owns the memoized cost model the session's tracker evaluates
    through.  After :meth:`bind` the phase bodies ask it for
    ``price_as_ecut`` / ``host_scores`` and for the fragment order
    (``cheapest`` / ``ascending``); each answer is computed on the spot
    from the tracker and the partition, so there is nothing to
    invalidate.  VMigrate's merged price needs no scorer: it is
    :func:`repro.core.v2h.merged_price` over the tracker.

    Lifecycle (owned by :class:`~repro.core.driver.RefineSession`)::

        cache = GainCache(partition, model)
        tracker = CostTracker(partition, cache.model)
        cache.bind(tracker)
        ...refine...
        tracker.detach()
    """

    def __init__(
        self,
        partition: "HybridPartition",
        model: CostModel,
        max_entries: int = DEFAULT_MAX_ENTRIES,
    ) -> None:
        self.partition = partition
        self.model = memoize_cost_model(model, max_entries=max_entries)
        #: One stats object per evaluation stack: a cache over an already
        #: memoized model (a nested pass) counts into that memo's stats.
        self.stats = self.model.stats
        self.tracker: Optional["CostTracker"] = None

    def bind(self, tracker: "CostTracker") -> None:
        """Attach the refiner's tracker; ``price_as_ecut`` is its own."""
        self.tracker = tracker
        self.price_as_ecut = tracker.price_as_ecut

    def host_scores(self, v: int, hosts: Sequence[int]) -> List[Tuple[float, float]]:
        """Eq. 5 pairs ``(g^j_A(v), Δh master)`` of ``v``, one per host,
        from one :func:`~repro.costmodel.features.copy_keys` pass."""
        tracker = self.tracker
        model = tracker.cost_model
        copies = {
            fid: (bearing, key)
            for fid, bearing, key in copy_keys(self.partition, v, tracker.avg_degree)
        }
        pairs = []
        for fid in hosts:
            bearing, key = copies[fid]
            pairs.append(
                (model.g_key(with_master(key, True)), model.master_delta_key(bearing, key))
            )
        return pairs

    def cheapest(self) -> int:
        """``argmin_i load(F_i)``, lowest fragment id among ties."""
        loads = self.tracker.loads()
        return min(range(len(loads)), key=loads.__getitem__)

    def ascending(self, fids: Sequence[int]) -> List[int]:
        """``fids`` by ascending load, ties in ``fids`` order.

        An empty ``fids`` returns ``[]`` without flushing the tracker,
        as ``sorted([], key=tracker.load)`` never calls its key.
        """
        if not fids:
            return []
        return sorted(fids, key=self.tracker.loads().__getitem__)
