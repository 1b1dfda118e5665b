"""Dirty-region bookkeeping for incremental refinement (DESIGN §15).

After a small mutation batch, re-running a full refinement pass rebuilds
the cost tracker from scratch — one cost-model evaluation per placed
copy before the first candidate is even scored.  The incremental path
(``refine_incremental`` on every refiner) instead:

* seeds the tracker from the previous run's
  :class:`~repro.core.tracker.TrackerSeed` snapshot, repricing only the
  journalled delta, and
* restricts candidate selection, the v-merge scan, and MAssign to the
  *dirty frontier* inside the fragments hosting any frontier vertex.

The frontier — the mutated vertices plus their graph neighbors — is the
exact influence set of a mutation batch: a copy's features (degree,
incident counts, border flag, role) can only change when the vertex
itself or one of its incident edges was touched, and every mutated edge
dirties both endpoints, so every copy whose price changed lies within
one hop of a dirty vertex.

:class:`RescoringModel` is the accounting layer for the speedup claim.
Installed *outermost* (the tracker evaluates through it), it counts
every ``h``/``g`` request before memoization by an inner
:class:`~repro.core.gaincache.MemoizedCostModel` could hide repeats —
so ``rescoring_calls`` measures work demanded of the cost model, which
is the currency the incremental acceptance bar is stated in.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Set

from repro.costmodel.model import CostModel
from repro.graph.digraph import Graph
from repro.partition.hybrid import HybridPartition


@dataclass
class IncrementalStats:
    """Scope of one dirty-region refinement pass."""

    dirty: int = 0  #: mutated vertices handed in by the caller
    frontier: int = 0  #: dirty vertices plus their graph neighbors
    fragments: int = 0  #: fragments hosting at least one frontier vertex
    seeded: bool = False  #: tracker restored from a snapshot (no cold rebuild)


class RescoringModel(CostModel):
    """Counting passthrough: tallies every ``h``/``g`` funnel request.

    Values are delegated untouched, so installing the wrapper is
    bit-identical to evaluating the wrapped model directly.
    """

    def __init__(self, base: CostModel) -> None:
        super().__init__(name=base.name, h=base.h, g=base.g, gate=base.gate)
        self.base = base
        self.calls = 0
        keyed = getattr(base, "keyed", None)
        if keyed is not None:
            # A value memo right below: count inside its lookup frame (§8.2).
            self.h_key, self.g_key = keyed("h", self), keyed("g", self)

    def h_value(self, features: Mapping[str, float]) -> float:
        self.calls += 1
        return self.base.h_value(features)

    def g_value(self, features: Mapping[str, float]) -> float:
        self.calls += 1
        return self.base.g_value(features)

    def h_key(self, key: tuple) -> float:
        self.calls += 1
        return self.base.h_key(key)

    def g_key(self, key: tuple) -> float:
        self.calls += 1
        return self.base.g_key(key)


def dirty_frontier(graph: Graph, dirty_vertices: Iterable[int]) -> Set[int]:
    """Dirty vertices plus their (in- and out-) neighbors.

    Out-of-range ids are dropped rather than rejected: a mutation batch
    may journal a vertex that a later rollback removed again.
    """
    n = graph.num_vertices
    frontier = {v for v in dirty_vertices if 0 <= v < n}
    for v in tuple(frontier):
        frontier.update(graph.out_neighbors(v).tolist())
        if graph.directed:
            frontier.update(graph.in_neighbors(v).tolist())
    return frontier


def touched_fragments(
    partition: HybridPartition, frontier: Iterable[int]
) -> Set[int]:
    """Fragments hosting at least one frontier vertex."""
    touched: Set[int] = set()
    for v in frontier:
        touched.update(partition.placement(v))
    return touched
