"""Incremental fragment-cost tracking.

The refiners evaluate ``C_h(F_i)`` / ``C_g(F_i)`` after every candidate
move; recomputing them from scratch would make refinement quadratic.
:class:`CostTracker` subscribes to the partition's mutation events and
maintains, per fragment, running sums of

* each cost-bearing copy's ``h_A(X(v))`` contribution (Eq. 2), and
* each hosted master border copy's ``g_A(X(v))`` contribution (Eq. 3).

A mutation (edge move, vertex move, master change) dirties the affected
vertices; their few copies are lazily re-priced on the next cost query.
This is exact — role flips (e-cut ↔ v-cut ↔ dummy) triggered by moves of
*other* vertices are captured because every structural event dirties both
endpoints of the touched edge.

Heterogeneous clusters: the tracker also exposes *capacity-normalized*
loads — ``load(fid) = C_h(F_fid) / speed_fid`` — the quantity the
refiners balance so that a slow worker gets a proportionally smaller
share of the work.  With no :class:`~repro.runtime.clusterspec.ClusterSpec`
the capacities are the all-ones spec's, and dividing by 1.0 returns the
raw cost bit for bit.

Incremental maintenance (DESIGN §15): :meth:`CostTracker.snapshot`
freezes the priced state as a :class:`TrackerSeed`; a tracker built with
``seed=`` restores it and reprices only the vertices the partition's
mutation journal says changed since the snapshot, replacing the cold
full rebuild with a delta replay.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import truediv
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.costmodel.features import copy_keys, ecut_key, priced_copies, with_master
from repro.costmodel.model import CostModel
from repro.graph.metrics import average_degree
from repro.partition.hybrid import HybridPartition
from repro.runtime.clusterspec import ClusterSpec


@dataclass
class TrackerSeed:
    """Frozen tracker state for warm-starting a later tracker (DESIGN §15).

    Captured by :meth:`CostTracker.snapshot` after a refinement pass and
    replayed through the partition's mutation journal: a tracker built
    from a seed restores these sums verbatim and marks only the vertices
    mutated since ``generation`` dirty, so the usual cold ``_rebuild``
    (one model evaluation per placed copy) shrinks to the delta.

    ``avg_degree`` is pinned in the seed: the average degree enters every
    feature vector, so repricing the delta under a post-mutation average
    while keeping pre-mutation prices for the rest would mix two feature
    scales.  Restoring the seed's value keeps all prices mutually
    consistent; the drift a small batch causes is re-absorbed by the next
    full (cold) refinement.
    """

    partition: HybridPartition
    generation: int
    avg_degree: float
    comp: List[float]
    comm: List[float]
    copy_contrib: Dict[int, Dict[int, float]]
    comm_contrib: Dict[int, Tuple[int, float]]


class CostTracker:
    """Maintains per-fragment C_h and C_g under partition mutations."""

    def __init__(
        self,
        partition: HybridPartition,
        cost_model: CostModel,
        spec: Optional[ClusterSpec] = None,
        seed: Optional[TrackerSeed] = None,
    ) -> None:
        self.partition = partition
        self.cost_model = cost_model
        self.avg_degree = average_degree(partition.graph)
        n = partition.num_fragments
        spec = spec or ClusterSpec.uniform(n)
        spec.validate_for(n)
        self.capacities: Tuple[float, ...] = spec.speeds
        self.bandwidths: Tuple[float, ...] = spec.bandwidths
        self._comp = [0.0] * n
        self._comm = [0.0] * n
        # v -> {fid: h contribution}; v -> (master fid, g contribution)
        self._copy_contrib: Dict[int, Dict[int, float]] = {}
        self._comm_contrib: Dict[int, Tuple[int, float]] = {}
        self._dirty: Set[int] = set()
        partition.add_listener(self._mark_dirty)
        try:
            self.seeded = seed is not None and self._restore(seed)
            if not self.seeded:
                self._rebuild()
        except BaseException:
            # A cost model that raises mid-rebuild must not leave this
            # half-built tracker subscribed to the caller's partition.
            self.detach()
            raise

    def snapshot(self) -> TrackerSeed:
        """Capture current state as a :class:`TrackerSeed`.

        The per-vertex maps are copied, the per-copy dicts inside them
        shared: ``_reprice`` replaces a vertex's dict, never edits it, so
        the seed outlives whatever this or a restored tracker does next.
        """
        self._flush()
        return TrackerSeed(
            partition=self.partition,
            generation=self.partition.generation,
            avg_degree=self.avg_degree,
            comp=list(self._comp),
            comm=list(self._comm),
            copy_contrib=dict(self._copy_contrib),
            comm_contrib=dict(self._comm_contrib),
        )

    def _restore(self, seed: TrackerSeed) -> bool:
        """Warm-start from ``seed``; False when it cannot be replayed.

        A seed is replayable only against the exact partition object it
        was captured from (the journal is per-object) and only while the
        journal still covers ``seed.generation``.
        """
        if seed.partition is not self.partition:
            return False
        if len(seed.comp) != self.partition.num_fragments:
            return False
        delta = self.partition.mutations_since(seed.generation)
        if delta is None:
            return False
        self.avg_degree = seed.avg_degree
        self._comp = list(seed.comp)
        self._comm = list(seed.comm)
        self._copy_contrib = dict(seed.copy_contrib)
        self._comm_contrib = dict(seed.comm_contrib)
        self._dirty = set(delta)
        return True

    def detach(self) -> None:
        """Stop listening to partition mutations."""
        self.partition.remove_listener(self._mark_dirty)

    def ensure_current(self) -> None:
        """Flush pending reprices (public alias for the lazy flush)."""
        self._flush()

    # ------------------------------------------------------------------
    def _mark_dirty(self, v: int) -> None:
        self._dirty.add(v)

    def _rebuild(self) -> None:
        self._comp = [0.0] * self.partition.num_fragments
        self._comm = [0.0] * self.partition.num_fragments
        self._copy_contrib.clear()
        self._comm_contrib.clear()
        self._dirty.clear()
        for v in sorted(self.partition._placement):
            self._reprice(v)

    def _reprice(self, v: int) -> None:
        """Recompute all of v's contributions; apply deltas to the sums."""
        comp = self._comp
        old_copies = self._copy_contrib.pop(v, None)
        if old_copies:
            for fid, contrib in old_copies.items():
                comp[fid] -= contrib
        old_comm = self._comm_contrib.pop(v, None)
        if old_comm is not None:
            self._comm[old_comm[0]] -= old_comm[1]

        # The copies Eqs. 2-3 charge.
        bearing, master, g_key = priced_copies(self.partition, v, self.avg_degree)
        model = self.cost_model
        new_copies: Dict[int, float] = {}
        for fid, key in bearing:
            contrib = model.h_key(key)
            if contrib:
                new_copies[fid] = contrib
                comp[fid] += contrib
        if new_copies:
            self._copy_contrib[v] = new_copies
        if g_key is not None:
            contrib = model.g_key(g_key)
            self._comm_contrib[v] = (master, contrib)
            self._comm[master] += contrib

    def _flush(self) -> None:
        if not self._dirty:
            return
        dirty, self._dirty = self._dirty, set()
        # Vertex-id order: the float sums never depend on the order the
        # vertices were dirtied in (DESIGN §8.2).
        for v in sorted(dirty):
            self._reprice(v)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def comp_cost(self, fid: int) -> float:
        """``C_h(F_fid)`` under the tracked cost model."""
        self._flush()
        return self._comp[fid]

    def comm_cost(self, fid: int) -> float:
        """``C_g(F_fid)`` under the tracked cost model."""
        self._flush()
        return self._comm[fid]

    def cost(self, fid: int) -> float:
        """``C_A(F_fid) = C_h + C_g``."""
        self._flush()
        return self._comp[fid] + self._comm[fid]

    def comp_costs(self) -> list:
        """All fragments' C_h as a list."""
        self._flush()
        return list(self._comp)

    def comm_costs(self) -> list:
        """All fragments' C_g as a list."""
        self._flush()
        return list(self._comm)

    def comm_contribution(self, v: int) -> Optional[Tuple[int, float]]:
        """Current ``(master fid, g contribution)`` of ``v``, if any."""
        self._flush()
        return self._comm_contrib.get(v)

    def parallel_cost(self) -> float:
        """``max_i C_A(F_i)``."""
        self._flush()
        return max(
            self._comp[i] + self._comm[i]
            for i in range(self.partition.num_fragments)
        )

    def load(self, fid: int) -> float:
        """Capacity-normalized compute load: ``C_h(F_fid) / speed_fid``."""
        self._flush()
        return self._comp[fid] / self.capacities[fid]

    def loads(self) -> list:
        """All fragments' capacity-normalized loads as a list."""
        self._flush()
        return list(map(truediv, self._comp, self.capacities))

    def projected_load(self, fid: int, projected_cost: float) -> float:
        """Normalize a hypothetical raw C_h for fragment ``fid`` (callers
        compute it as e.g. ``comp_cost(dst) + price``)."""
        return projected_cost / self.capacities[fid]

    def keep_budget(self, fid: int, budget: float) -> float:
        """Translate a normalized budget into raw C_h units for ``fid``.

        GetCandidates accumulates raw per-copy contributions, so the
        budget it keeps within must be denormalized per fragment.
        """
        return budget * self.capacities[fid]

    def copy_comp_cost(self, v: int, fid: int) -> float:
        """Current h contribution of the copy of ``v`` at ``fid``."""
        self._flush()
        return self._copy_contrib.get(v, {}).get(fid, 0.0)

    def price_as_ecut(self, v: int) -> float:
        """``h_A`` of ``v`` if it were an e-cut node holding all its edges.

        Used to pre-price EMigrate destinations without mutating state.
        """
        return self.cost_model.h_key(ecut_key(self.partition, v, self.avg_degree))

    def host_scores(self, v: int, hosts: Sequence[int]) -> List[Tuple[float, float]]:
        """Eq. 5 pairs ``(g^j_A(v), Δh master)`` of ``v``, one per host,
        from one :func:`~repro.costmodel.features.copy_keys` pass."""
        model = self.cost_model
        copies = {
            fid: (bearing, key)
            for fid, bearing, key in copy_keys(self.partition, v, self.avg_degree)
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
        loads = self.loads()
        return min(range(len(loads)), key=loads.__getitem__)

    def ascending(self, fids: Sequence[int]) -> List[int]:
        """``fids`` by ascending load, ties in ``fids`` order.

        An empty ``fids`` returns ``[]`` without flushing, as
        ``sorted([], key=self.load)`` never calls its key.
        """
        if not fids:
            return []
        return sorted(fids, key=self.loads().__getitem__)
