"""Algorithm E2H: edge-cut → hybrid refinement (Section 5.1, Fig. 3).

Given an edge-cut partition and the cost model of an algorithm ``A``,
E2H reduces the parallel cost ``max_i C_A(F_i)`` in two stages:

1. **Balance computational cost** guided by ``h_A``:

   * *EMigrate* moves whole e-cut nodes (with all incident edges) from
     overloaded to underloaded fragments, keeping each destination under
     the budget ``B = Σ C_h / n``;
   * *ESplit* cuts the leftover candidates — typically super-nodes whose
     own cost exceeds any destination's headroom — into v-cut nodes,
     migrating their edges one by one to the currently cheapest fragment.

2. **Redistribute communication cost** guided by ``g_A`` via *MAssign*.

Every move is priced through the pass's scorer
(:class:`~repro.core.gaincache.GainCache`, the session's only one).

Phases can be individually disabled to reproduce the appendix ablation
(ParE2H₁/₂/₃, Fig. 11(a)).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.dirty import IncrementalStats
from repro.core.driver import DirtyScope, PassState, run_pass
from repro.core.gaincache import GainCacheStats
from repro.core.massign import massign
from repro.core.operations import emigrate, split_migrate_edge
from repro.core.tracker import TrackerSeed
from repro.costmodel.model import CostModel
from repro.integrity.guard import GuardConfig, GuardStats
from repro.partition.fragment import Edge
from repro.partition.hybrid import HybridPartition, NodeRole
from repro.runtime.clusterspec import ClusterSpec, coerce_cluster_spec


@dataclass
class RefineStats:
    """Bookkeeping of one refinement run (feeds Exp-3 and Fig. 11)."""

    budget: float = 0.0
    overloaded: int = 0
    candidates: int = 0
    emigrated: int = 0
    split_vertices: int = 0
    split_edges: int = 0
    vmigrated: int = 0
    vmerged: int = 0
    master_moves: int = 0
    phase_seconds: Dict[str, float] = field(default_factory=dict)
    cost_before: float = 0.0
    cost_after: float = 0.0
    guard: Optional[GuardStats] = None
    gain_cache: GainCacheStats = field(default_factory=GainCacheStats)
    #: h/g funnel requests reaching the cost model (tracker rebuild,
    #: candidate pricing, Eq. 5 scoring) — the incremental path's currency.
    rescoring_calls: int = 0
    #: Set on dirty-region passes only (``refine_incremental``).
    incremental: Optional[IncrementalStats] = None


class WallClockExecutor:
    """Sequential executor: phases run inline, timed by wall clock."""

    def __init__(self) -> None:
        self.stats = RefineStats()

    def open(self, partition: HybridPartition) -> None:
        return None

    def setup(self, select, state: PassState) -> None:
        select()

    def phase(self, name: str, body, state: PassState) -> None:
        start = time.perf_counter()
        body(state)
        self.stats.phase_seconds[name] = time.perf_counter() - start

    def result(self, partition: HybridPartition) -> HybridPartition:
        return partition


def fits(state: PassState, dst: int, price: float) -> bool:
    """EMigrate's rule: a star priced ``price`` fits ``dst`` within budget."""
    tracker = state.tracker
    return tracker.projected_load(dst, tracker.comp_cost(dst) + price) <= state.budget


def split_edges(state: PassState, src: int, v: int) -> List[Edge]:
    """ESplit's work for candidate ``v`` at ``src``: its local edges,
    ascending; ``v`` counts as split when it has any."""
    fragment = state.partition.fragments[src]
    edges = sorted(fragment.incident(v)) if fragment.has_vertex(v) else []
    if edges:
        state.stats.split_vertices += 1
    return edges


def split_edge(state: PassState, v: int, edge: Edge, src: int) -> Optional[int]:
    """ESplit's move: ``v``'s ``edge`` leaves ``src`` for argmin C_h.

    Returns the target, or ``None`` when ``src`` is the cheapest
    fragment or the edge has already left it.
    """
    target = state.scorer.cheapest()
    if target == src or not state.partition.fragments[src].has_edge(edge):
        return None
    split_migrate_edge(state.partition, v, edge, src, target)
    state.stats.split_edges += 1
    state.step()
    return target


class SingleOutputRefiner:
    """``refine`` / ``refine_incremental`` of E2H, V2H, ParE2H and ParV2H.

    Both are one :func:`~repro.core.driver.run_pass`; the subclass
    supplies ``role``, ``_phase_plan()`` and, for the Par variants, the
    cluster executor (which makes both methods return ``(partition,
    profile)`` instead of the partition).
    """

    candidate_order = "bfs"
    last_seed: Optional[TrackerSeed]

    def _executor(self):
        return WallClockExecutor()

    def _phase_massign(self, state: PassState) -> None:
        """MAssign: one Eq. 5 pass in ascending vertex order."""
        vertices, residual = state.massign_scope()
        state.stats.master_moves = massign(
            state.tracker,
            state.scorer,
            vertices=None if vertices is None else sorted(vertices),
            guard=state.guard,
            residual=residual,
        )

    def refine(
        self,
        partition: HybridPartition,
        in_place: bool = False,
        capture_seed: bool = False,
    ):
        """Refine an edge-cut (E2H) / vertex-cut (V2H) partition into a
        hybrid one.

        Returns a new partition unless ``in_place`` is set.  Statistics
        of the run are kept in :attr:`last_stats`.  With
        ``capture_seed`` the final tracker state is snapshotted into
        :attr:`last_seed` so a later :meth:`refine_incremental` can
        warm-start instead of rebuilding the tracker cold.
        """
        executor = self._executor()
        if not in_place:
            partition = partition.copy()
        return run_pass(self, partition, None, executor, capture_seed)

    def refine_incremental(
        self,
        partition: HybridPartition,
        dirty_vertices,
        in_place: bool = True,
        seed="auto",
    ):
        """Dirty-region refinement after a small mutation batch (DESIGN §15).

        Runs the same phases as :meth:`refine` with their scope
        narrowed to the dirty frontier — ``dirty_vertices`` plus their
        graph neighbors — inside the fragments hosting any frontier
        vertex: candidates outside the frontier are skipped, VMerge
        only scans touched fragments' frontier v-cuts, and MAssign only
        revisits frontier border vertices.  The cost tracker is seeded
        from ``seed`` (default: :attr:`last_seed`, captured by a prior
        ``refine(..., capture_seed=True)`` or incremental pass) when
        the partition's mutation journal still covers it, replacing the
        cold per-copy rebuild with a delta replay.  A fresh snapshot is
        stored in :attr:`last_seed` afterwards so consecutive
        incremental passes stay warm.

        Defaults to in-place: a copied partition has its own journal and
        generation counter, against which a seed captured on the
        original cannot be replayed.
        """
        executor = self._executor()
        if not in_place:
            partition, seed = partition.copy(), None
        elif seed == "auto":
            seed = self.last_seed
        scope = DirtyScope.around(partition, dirty_vertices, seed)
        return run_pass(self, partition, scope, executor)


class E2H(SingleOutputRefiner):
    """Edge-cut → hybrid refiner driven by a cost model.

    Parameters
    ----------
    cost_model:
        The algorithm's learned (or built-in) cost model.
    enable_emigrate / enable_esplit / enable_massign:
        Phase switches for the appendix ablation.
    budget_slack:
        Multiplier on the average-cost budget (1.0 = the paper's B).
    guard_config:
        Optional :class:`~repro.integrity.guard.GuardConfig` enabling the
        guarded pipeline: cost-model guardrails, step/wall-clock budgets
        with best-so-far early stop, and a post-pass invariant check.
        ``None`` (default) runs unguarded with zero overhead.
    cluster_spec:
        Optional heterogeneous :class:`~repro.runtime.clusterspec.
        ClusterSpec` (or its dict payload / file path).  Balance targets
        are capacity shares: the budget is per unit of compute speed and
        fragments are compared by normalized load ``C_h/speed``.  ``None``
        is the all-ones spec, whose shares are equal.
    """

    phases = ("emigrate", "esplit", "massign")
    role = NodeRole.ECUT

    def __init__(
        self,
        cost_model: CostModel,
        enable_emigrate: bool = True,
        enable_esplit: bool = True,
        enable_massign: bool = True,
        budget_slack: float = 1.0,
        candidate_order: str = "bfs",
        guard_config: Optional[GuardConfig] = None,
        cluster_spec: Optional[ClusterSpec] = None,
    ) -> None:
        if candidate_order not in ("bfs", "arbitrary"):
            raise ValueError("candidate_order must be 'bfs' or 'arbitrary'")
        self.cost_model = cost_model
        self.enable_emigrate = enable_emigrate
        self.enable_esplit = enable_esplit
        self.enable_massign = enable_massign
        self.budget_slack = budget_slack
        self.candidate_order = candidate_order
        self.guard_config = guard_config
        self.cluster_spec = coerce_cluster_spec(cluster_spec)
        self.last_stats: Optional[RefineStats] = None
        self.last_seed: Optional[TrackerSeed] = None

    def _phase_plan(self):
        return (
            ("emigrate", self.enable_emigrate, self._phase_emigrate),
            ("esplit", self.enable_esplit, self._phase_esplit),
            ("massign", self.enable_massign, self._phase_massign),
        )

    # ------------------------------------------------------------------
    def _phase_emigrate(self, state: PassState) -> None:
        """Fig. 3 lines 6-10: ship whole candidates to underloaded fragments."""
        price_as_ecut = state.scorer.price_as_ecut
        ascending = state.scorer.ascending
        for src, cand_list in state.candidates.items():
            remaining = []
            for v, edges in cand_list:
                if not state.holds(v, src, NodeRole.ECUT):
                    remaining.append((v, edges))
                    continue
                price = price_as_ecut(v)
                for dst in ascending(state.underloaded):
                    if fits(state, dst, price):
                        emigrate(state.partition, v, src, dst)
                        state.stats.emigrated += 1
                        state.step()
                        break
                else:
                    remaining.append((v, edges))
            state.candidates[src] = remaining

    def _phase_esplit(self, state: PassState) -> None:
        """Fig. 3 lines 11-14: split leftovers edge by edge to argmin C_h."""
        for src, cand_list in state.candidates.items():
            for v, _snapshot in cand_list:
                for edge in split_edges(state, src, v):
                    split_edge(state, v, edge, src)
            state.candidates[src] = []
