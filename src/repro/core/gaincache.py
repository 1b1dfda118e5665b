"""Gain-cache fast path for the refiners (DESIGN.md §8).

The refiners re-score move candidates against the cost model on every
iteration — ``price_as_ecut`` per EMigrate attempt, merged prices per
VMigrate destination, Eq. 5 scores per MAssign host — and every score
bottoms out in a polynomial evaluation over the copy's metric variables.
That is the hottest path in the repo.  This module removes the redundant
work in three layers, each of which is **exact**: every answer is the
float a direct evaluation off the tracker would give (the differential
suite runs the refiners under such an uncached scorer and compares
partitions and tracked costs bit for bit).

1. :class:`MemoizedCostModel` — ``h_A``/``g_A`` are pure functions of
   the feature vector, so their values are memoized on the exact feature
   tuple.  Identical inputs return the previously computed float; the
   polynomial is only evaluated on distinct feature profiles (power-law
   graphs share profiles massively across their low-degree tails).

2. :class:`GainCache` — per-candidate gains (`price_as_ecut`, VMigrate
   merged prices, MAssign Eq. 5 score pairs) cached per vertex and
   **lazily invalidated** through the partition's mutation listeners:
   any structural event touching ``v`` drops ``v``'s cached gains, the
   same hook the incremental tracker rides.

3. :class:`FragmentCostIndex` — a bucketed fragment queue over the
   tracker's per-fragment ``C_h`` so ``cheapest()`` (ESplit/EAssign's
   argmin) and ``ascending()`` (EMigrate's destination order) pop from a
   lazily repaired heap instead of rescanning every fragment per move.

Exactness rules the implementation follows everywhere:

* every shortcut returns the same float the reference computation would
  (memoized values *are* the reference values; ties in fragment ordering
  break by fragment id exactly like the stable sorts they replace);
* no shortcut changes the :class:`~repro.core.tracker.CostTracker`'s
  lazy-flush boundaries — caches either avoid tracker state entirely or
  call :meth:`~repro.core.tracker.CostTracker.ensure_current` at the
  same points the uncached code would have triggered a flush, so the
  float accumulation order inside the tracker (and therefore the cached
  costs and every subsequent comparison) is untouched.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
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
    """Cache effectiveness counters, surfaced on ``RefineStats.gain_cache``.

    ``value_*`` count the feature-tuple memo in front of the polynomial
    evaluator (``value_misses`` = polynomials actually evaluated through
    the cache); ``vertex_*`` count the per-vertex gain caches sitting
    above it; ``invalidations`` counts cached gains dropped by partition
    mutation events; ``evictions`` counts memo entries discarded when a
    memo table hits its size bound.
    """

    value_hits: int = 0
    value_misses: int = 0
    vertex_hits: int = 0
    vertex_misses: int = 0
    invalidations: int = 0
    evictions: int = 0

    @property
    def hits(self) -> int:
        """Total lookups answered from a cache layer."""
        return self.value_hits + self.vertex_hits

    @property
    def misses(self) -> int:
        """Total lookups that fell through to a computation."""
        return self.value_misses + self.vertex_misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served without recomputation."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def merge(self, other: "GainCacheStats") -> None:
        """Accumulate ``other``'s counters into this one."""
        self.value_hits += other.value_hits
        self.value_misses += other.value_misses
        self.vertex_hits += other.vertex_hits
        self.vertex_misses += other.vertex_misses
        self.invalidations += other.invalidations
        self.evictions += other.evictions

    def as_dict(self) -> Dict[str, float]:
        """JSON-serializable summary (benchmarks, CLI reporting)."""
        return {
            "value_hits": self.value_hits,
            "value_misses": self.value_misses,
            "vertex_hits": self.vertex_hits,
            "vertex_misses": self.vertex_misses,
            "invalidations": self.invalidations,
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


class FragmentCostIndex:
    """Bucketed fragment queue over the tracker's per-fragment ``C_h``.

    Replaces the refiners' per-move rescans — ``min(range(n),
    key=tracker.comp_cost)`` and ``sorted(underloaded,
    key=tracker.comp_cost)`` — with a lazily repaired heap and a cached
    ascending order.  Staleness is keyed off the tracker's cost
    listeners (fired whenever a reprice changes a fragment's ``C_h``).

    Tie-breaking matches the code it replaces exactly: ``min`` over
    ascending fragment ids returns the lowest id among minimum-cost
    fragments, and Python's stable sort over an ascending id list orders
    ties by id — both equal ordering by ``(cost, fid)``.
    """

    def __init__(self, tracker: "CostTracker") -> None:
        self.tracker = tracker
        n = tracker.partition.num_fragments
        self._heap: List[Tuple[float, int]] = []
        self._stale = set(range(n))
        self._order: List[int] = []
        self._order_key: Optional[Tuple[int, ...]] = None
        self._order_dirty = True
        tracker.add_cost_listener(self._on_cost_change)

    def detach(self) -> None:
        """Stop listening to tracker cost changes."""
        self.tracker.remove_cost_listener(self._on_cost_change)

    def _on_cost_change(self, fid: int) -> None:
        self._stale.add(fid)
        self._order_dirty = True

    def cheapest(self) -> int:
        """``argmin_i C_h(F_i)``, lowest fragment id among ties.

        Flushes the tracker first — the same boundary the uncached
        ``min(..., key=comp_cost)`` scan would have triggered.
        """
        self.tracker.ensure_current()
        cost_of = self._cost_of()
        if self._stale:
            for fid in self._stale:
                heapq.heappush(self._heap, (cost_of(fid), fid))
            self._stale.clear()
        heap = self._heap
        while True:
            cost, fid = heap[0]
            if cost == cost_of(fid):
                return fid
            heapq.heappop(heap)

    def _cost_of(self):
        """Ranking key: the capacity-normalized load (the same floats as
        the uncached ``tracker.load`` scans, so orders stay identical)."""
        comp = self.tracker._comp
        caps = self.tracker.capacities
        return lambda fid: comp[fid] / caps[fid]

    def ascending(self, fids: Sequence[int]) -> List[int]:
        """``sorted(fids, key=comp_cost)`` for an ascending-id ``fids``.

        The sorted order is cached and only recomputed after a fragment
        cost change.  An empty ``fids`` returns ``[]`` without flushing,
        matching ``sorted([])`` never invoking its key.
        """
        if not fids:
            return []
        self.tracker.ensure_current()
        key = tuple(fids)
        if self._order_dirty or key != self._order_key:
            cost_of = self._cost_of()
            self._order = sorted(key, key=lambda fid: (cost_of(fid), fid))
            self._order_key = key
            self._order_dirty = False
        return self._order


class GainCache:
    """Per-candidate gain cache with lazy invalidation (DESIGN.md §8).

    Owns the memoized cost model the refiner's tracker evaluates
    through, the per-vertex gain caches, and (after :meth:`bind`) the
    :class:`FragmentCostIndex`.  Subscribes to the partition's mutation
    listeners — the same hooks the incremental tracker uses — and drops
    every cached gain of a vertex the moment any structural event
    touches it.

    A bound cache is the refiners' *scorer*: the phase bodies ask it
    for ``price_as_ecut`` / ``merged_price`` / ``host_scores`` /
    ``master_delta`` and for the fragment order (``cheapest`` /
    ``ascending``), and never look behind it; it is the only scorer.

    Lifecycle (owned by :class:`~repro.core.driver.RefineSession`)::

        cache = GainCache(partition, model)
        tracker = CostTracker(partition, cache.model)
        cache.bind(tracker)
        ...refine...
        tracker.detach(); cache.detach()
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
        self.index: Optional[FragmentCostIndex] = None
        self._ecut_price: Dict[int, float] = {}
        self._merged: Dict[int, Dict[Tuple[int, int], float]] = {}
        self._massign: Dict[int, Dict[int, Tuple[float, float]]] = {}
        # Vertices with any cached gain: the invalidation listener runs
        # on every mutation event, so the common no-entry case must be a
        # single membership check.
        self._cached: set = set()
        partition.add_listener(self._invalidate)

    def bind(self, tracker: "CostTracker") -> None:
        """Attach the refiner's tracker (enables the fragment index)."""
        self.tracker = tracker
        self.index = FragmentCostIndex(tracker)
        # The index's bound methods *are* the scorer's fragment order:
        # no forwarding frame between a hot loop and the heap.
        self.cheapest = self.index.cheapest
        self.ascending = self.index.ascending

    def detach(self) -> None:
        """Unsubscribe from partition (and tracker) events."""
        self.partition.remove_listener(self._invalidate)
        if self.index is not None:
            self.index.detach()
            self.index = None

    # ------------------------------------------------------------------
    def _invalidate(self, v: int) -> None:
        if v not in self._cached:
            return
        self._cached.discard(v)
        dropped = 0
        if self._ecut_price.pop(v, None) is not None:
            dropped += 1
        bucket = self._merged.pop(v, None)
        if bucket:
            dropped += len(bucket)
        bucket = self._massign.pop(v, None)
        if bucket:
            dropped += len(bucket)
        self.stats.invalidations += dropped

    # ------------------------------------------------------------------
    # Cached gains (each computes exactly what the uncached path would)
    # ------------------------------------------------------------------
    def price_as_ecut(self, v: int) -> float:
        """Cached :meth:`CostTracker.price_as_ecut` (no tracker flush)."""
        price = self._ecut_price.get(v)
        if price is None:
            self.stats.vertex_misses += 1
            price = self.tracker.price_as_ecut(v)
            self._ecut_price[v] = price
            self._cached.add(v)
        else:
            self.stats.vertex_hits += 1
        return price

    def merged_price(self, v: int, src: int, dst: int, compute) -> float:
        """Cached VMigrate merged price; ``compute()`` on miss."""
        bucket = self._merged.setdefault(v, {})
        price = bucket.get((src, dst))
        if price is None:
            self.stats.vertex_misses += 1
            price = compute()
            bucket[(src, dst)] = price
            self._cached.add(v)
        else:
            self.stats.vertex_hits += 1
        return price

    def host_scores(self, v: int, hosts: Sequence[int]) -> List[Tuple[float, float]]:
        """Cached Eq. 5 pairs ``(g^j_A(v), Δh master)`` of ``v``, one per host.

        One call scores every host MAssign weighs for ``v``; the per-vertex
        pass behind the missing pairs is taken once.
        """
        bucket = self._massign.setdefault(v, {})
        stats = self.stats
        copies = None
        pairs = []
        for fid in hosts:
            pair = bucket.get(fid)
            if pair is None:
                stats.vertex_misses += 1
                if copies is None:
                    self._cached.add(v)
                    model, avg = self.tracker.cost_model, self.tracker.avg_degree
                    copies = {
                        host: (bearing, key)
                        for host, bearing, key in copy_keys(self.partition, v, avg)
                    }
                bearing, key = copies[fid]
                pair = bucket[fid] = (
                    model.g_key(with_master(key, True)),
                    model.master_delta_key(bearing, key),
                )
            else:
                stats.vertex_hits += 1
            pairs.append(pair)
        return pairs

    def massign_scores(self, v: int, fid: int) -> Tuple[float, float]:
        """:meth:`host_scores` of the single host ``fid``."""
        return self.host_scores(v, (fid,))[0]

    def master_delta(self, v: int, fid: int) -> float:
        """Δh of mastering ``v`` at ``fid`` (a hit right after Eq. 5
        scored that host, with the identical value)."""
        return self.massign_scores(v, fid)[1]
