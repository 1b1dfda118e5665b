"""Algorithm MV2H: composite vertex-cut → hybrid refinement (Section 6.3).

The vertex-cut form of ME2H on the shared
:class:`~repro.core.me2h.CompositeRefiner` skeleton: candidate units are
the input's v-cut node copies ``(v, E^v_i)`` (each input edge belongs to
exactly one unit, so every output partition keeps the vertex-cut's
disjoint edge sets); Init builds large shared cores and VAssign routes
the leftovers through the set-cover heuristic.  A vertex-cut unit can
always be absorbed whole (its edges are private to it), so a unit that
fits nowhere under budget goes to the currently cheapest fragment on the
spot — there is no EAssign in Section 6.3.  The tail is instead a VMerge
pass per output partition, promoting v-cut nodes to e-cut nodes where
budget allows (reducing the communication cost exactly as V2H does),
before MAssign finishes the master mappings.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.core.candidates import bfs_order
from repro.core.driver import RefineSession
from repro.core.me2h import (
    CompositeRefiner,
    CompositeStats,
    Leftover,
    Unit,
    _CompositeRun,
)
from repro.core.v2h import V2H
from repro.costmodel.features import hypothetical_key
from repro.costmodel.model import CostModel
from repro.integrity.guard import GuardConfig
from repro.partition.hybrid import HybridPartition
from repro.runtime.clusterspec import ClusterSpec


class MV2H(CompositeRefiner):
    """Composite vertex-cut refiner for a batch of algorithms."""

    worker = V2H
    tail = "vmerge"

    def __init__(
        self,
        cost_models: Dict[str, CostModel],
        budget_slack: float = 1.2,
        vmerge_passes: int = 1,
        guard_config: Optional[GuardConfig] = None,
        cluster_spec: Optional[ClusterSpec] = None,
    ) -> None:
        super().__init__(cost_models, budget_slack, guard_config, cluster_spec)
        self.vmerge_passes = vmerge_passes

    def _worker(self, model: CostModel, **options) -> V2H:
        return super()._worker(model, vmerge_passes=self.vmerge_passes, **options)

    def _units(self, partition: HybridPartition) -> List[Tuple[int, Unit]]:
        """Disjoint ``(v, edges)`` units.

        Each input edge is claimed by the unit of its first endpoint in
        BFS order, so units partition the fragment's edge set and the
        output partitions inherit the vertex-cut's disjointness.
        """
        units: List[Tuple[int, Unit]] = []
        for fragment in partition.fragments:
            fid = fragment.fid
            claimed = set()
            for v in bfs_order(partition, fid):
                # Sorted: incident() is a frozenset; unit edge order must
                # be stable across builds for reproducible assignment.
                edges = tuple(
                    e for e in sorted(fragment.incident(v)) if e not in claimed
                )
                claimed.update(edges)
                if edges or fragment.incident_count(v) == 0:
                    units.append((fid, (v, edges)))
        return units

    def _load(self, session: RefineSession, unit: Unit) -> Callable[[int], float]:
        """Each fragment prices the unit's copy against what it already
        holds of ``v`` (h_A of the merged copy, minus the old copy's)."""
        tracker = session.tracker
        output = session.partition
        v, edges = unit
        directed = output.graph.directed
        d_in = sum(1 for e in edges if e[1] == v or not directed)
        d_out = sum(1 for e in edges if e[0] == v or not directed)

        def load(fid: int) -> float:
            fragment = output.fragments[fid]
            d_l = fragment.incident_count(v) + len(edges)
            key = hypothetical_key(
                output,
                v,
                tracker.avg_degree,
                fragment.local_in_degree(v) + d_in,
                fragment.local_out_degree(v) + d_out,
                d_l,
                ecut=d_l >= output.global_incident_count(v),
                master=fragment.has_vertex(v) and output.master(v) == fid,
            )
            price = tracker.cost_model.h_key(key)
            old = tracker.copy_comp_cost(v, fid)
            return tracker.comp_cost(fid) - old + price

        return load

    @staticmethod
    def _assign_unit(output: HybridPartition, unit: Unit, fid: int) -> None:
        v, edges = unit
        if edges:
            output.transfer_star(v, edges, fid)
        else:
            output.add_vertex_to(fid, v)

    def _unplaced(self, session: RefineSession, stats: CompositeStats) -> int:
        # Inside the per-unit loop: the placement moves ``cheapest()``
        # and the underloaded sets seen by later units.
        stats.eassign_units += 1
        return session.scorer.cheapest()

    def _merger(self, model: CostModel, **options) -> V2H:
        """The V2H pass the tail runs on one output."""
        return V2H(model, **options)

    def _tail(self, run: _CompositeRun, residue: List[Leftover]) -> None:
        for session in run.sessions.values():
            if run.exhausted:
                break
            # A nested full-scope V2H pass with only VMerge enabled,
            # evaluating through this output's memo/guardrail stack.
            merger = self._merger(
                session.model,
                enable_vmigrate=False,
                enable_massign=False,
                vmerge_passes=self.vmerge_passes,
                cluster_spec=self.cluster_spec,
            )
            merger.refine(session.partition, in_place=True)
            run.stats.rescoring_calls += merger.last_stats.rescoring_calls
            run.stats.vmerged += merger.last_stats.vmerged
