"""Algorithm MV2H: composite vertex-cut → hybrid refinement (Section 6.3).

The vertex-cut counterpart of ME2H: candidate units are the input's
v-cut node copies ``(v, E^v_i)`` (each input edge belongs to exactly one
unit, so every output partition keeps the vertex-cut's disjoint edge
sets); Init builds large shared cores, VAssign routes the leftovers
through the set-cover heuristic, then a VMerge pass per output partition
promotes v-cut nodes to e-cut nodes where budget allows (reducing the
communication cost exactly as V2H does), and MAssign finishes the master
mappings.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.core.candidates import bfs_order
from repro.core.driver import RefineSession
from repro.core.getdest import get_dest
from repro.core.me2h import (
    CompositeStats,
    Unit,
    _GuardSet,
    composite_pass,
    maintain_outputs,
    massign_outputs,
    timed_phase,
)
from repro.core.tracker import CostTracker
from repro.core.v2h import V2H
from repro.costmodel.features import hypothetical_key
from repro.costmodel.model import CostModel
from repro.integrity.guard import GuardConfig
from repro.partition.composite import CompositePartition
from repro.partition.hybrid import HybridPartition
from repro.runtime.clusterspec import ClusterSpec, coerce_cluster_spec


class MV2H:
    """Composite vertex-cut refiner for a batch of algorithms."""

    def __init__(
        self,
        cost_models: Dict[str, CostModel],
        budget_slack: float = 1.2,
        vmerge_passes: int = 1,
        guard_config: Optional[GuardConfig] = None,
        cluster_spec: Optional[ClusterSpec] = None,
    ) -> None:
        if not cost_models:
            raise ValueError("MV2H needs at least one cost model")
        self.cost_models = dict(cost_models)
        self.budget_slack = budget_slack
        self.vmerge_passes = vmerge_passes
        self.guard_config = guard_config
        self.cluster_spec = coerce_cluster_spec(cluster_spec)
        self.last_stats: Optional[CompositeStats] = None
        # Persistent per-algorithm dirty-region workers (DESIGN §15).
        self._maintainers: Dict[str, V2H] = {}

    def _worker(self, model: CostModel) -> V2H:
        return V2H(
            model,
            budget_slack=self.budget_slack,
            vmerge_passes=self.vmerge_passes,
            guard_config=self.guard_config,
            cluster_spec=self.cluster_spec,
        )

    def refine_incremental(
        self, composite: CompositePartition, dirty_vertices
    ) -> CompositePartition:
        """Dirty-region maintenance: an in-place incremental V2H pass per
        output (see :func:`~repro.core.me2h.maintain_outputs`)."""
        return maintain_outputs(self, composite, dirty_vertices)

    def refine(self, partition: HybridPartition) -> CompositePartition:
        """Produce a composite partition from a vertex-cut input."""
        return composite_pass(self, partition)

    def _run_phases(
        self,
        partition: HybridPartition,
        sessions: Dict[str, RefineSession],
        stats: CompositeStats,
        guards: _GuardSet,
    ) -> None:
        units_by_fragment = self._units(partition)
        with timed_phase(stats, "init"):
            leftovers = self._phase_init(units_by_fragment, sessions, stats, guards)
        with timed_phase(stats, "vassign"):
            self._phase_vassign(leftovers, sessions, stats, guards)
        with timed_phase(stats, "vmerge"):
            for name, session in sessions.items():
                if guards.exhausted:
                    break
                # A nested full-scope V2H pass with only VMerge enabled,
                # evaluating through this output's memo/guardrail stack.
                merger = V2H(
                    session.model,
                    enable_vmigrate=False,
                    enable_vmerge=True,
                    enable_massign=False,
                    vmerge_passes=self.vmerge_passes,
                    cluster_spec=self.cluster_spec,
                )
                merger.refine(session.partition, in_place=True)
                stats.rescoring_calls += merger.last_stats.rescoring_calls
        with timed_phase(stats, "massign"):
            massign_outputs(sessions, guards)

    # ------------------------------------------------------------------
    def _units(self, partition: HybridPartition) -> List[List[Tuple[int, Unit]]]:
        """Per input fragment: disjoint ``(v, edges)`` units in BFS order.

        Each input edge is claimed by the unit of its first endpoint in
        BFS order, so units partition the fragment's edge set and the
        output partitions inherit the vertex-cut's disjointness.
        """
        per_fragment: List[List[Tuple[int, Unit]]] = []
        for fragment in partition.fragments:
            fid = fragment.fid
            order = bfs_order(partition, fid)
            claimed = set()
            units: List[Tuple[int, Unit]] = []
            for v in order:
                # Sorted: incident() is a frozenset; unit edge order must
                # be stable across builds for reproducible assignment.
                edges = tuple(
                    e for e in sorted(fragment.incident(v)) if e not in claimed
                )
                claimed.update(edges)
                if edges or fragment.incident_count(v) == 0:
                    units.append((fid, (v, edges)))
            per_fragment.append(units)
        return per_fragment

    def _price(self, tracker: CostTracker, output: HybridPartition, unit: Unit, fid: int) -> float:
        """h_A of the unit's copy if placed at ``fid`` of the output."""
        v, edges = unit
        graph = output.graph
        d_in = sum(1 for e in edges if e[1] == v or not graph.directed)
        d_out = sum(1 for e in edges if e[0] == v or not graph.directed)
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
        return tracker.cost_model.h_key(key)

    @staticmethod
    def _assign_unit(output: HybridPartition, unit: Unit, fid: int) -> None:
        v, edges = unit
        if edges:
            output.transfer_star(v, edges, fid)
        else:
            output.add_vertex_to(fid, v)

    def _phase_init(
        self,
        units_by_fragment: List[List[Tuple[int, Unit]]],
        sessions: Dict[str, RefineSession],
        stats: CompositeStats,
        guards: _GuardSet,
    ) -> List[Tuple[int, Unit, Set[str]]]:
        """Shared BFS prefixes become the cores (Section 6.3 VAssign init)."""
        leftovers: List[Tuple[int, Unit, Set[str]]] = []
        for units in units_by_fragment:
            for fid, unit in units:
                if guards.exhausted:
                    leftovers.append((fid, unit, set(sessions)))
                    continue
                pending: Set[str] = set()
                accepted_all = True
                for name, session in sessions.items():
                    tracker = session.tracker
                    price = self._price(tracker, tracker.partition, unit, fid)
                    old = tracker.copy_comp_cost(unit[0], fid)
                    if (
                        tracker.projected_load(
                            fid, tracker.comp_cost(fid) - old + price
                        )
                        <= stats.budgets[name]
                    ):
                        self._assign_unit(tracker.partition, unit, fid)
                        guards.step(name)
                    else:
                        pending.add(name)
                        accepted_all = False
                if accepted_all:
                    stats.core_units += 1
                if pending:
                    leftovers.append((fid, unit, pending))
        return leftovers

    def _phase_vassign(
        self,
        leftovers: List[Tuple[int, Unit, Set[str]]],
        sessions: Dict[str, RefineSession],
        stats: CompositeStats,
        guards: _GuardSet,
    ) -> None:
        """Route leftover units through GetDest; split-free fallback.

        Unlike ME2H, a vertex-cut unit can always be absorbed somewhere
        (its edges are private to the unit), so units that fit nowhere
        under budget go to the currently cheapest fragment directly —
        there is no separate EAssign stage in Section 6.3.
        """
        trackers = {name: session.tracker for name, session in sessions.items()}
        n = next(iter(trackers.values())).partition.num_fragments
        underloaded: Dict[str, Set[int]] = {
            name: {
                fid
                for fid in range(n)
                if tracker.load(fid) < stats.budgets[name]
            }
            for name, tracker in trackers.items()
        }
        for _origin, unit, pending in leftovers:
            def fits(name: str, fid: int) -> bool:
                tracker = trackers[name]
                price = self._price(tracker, tracker.partition, unit, fid)
                old = tracker.copy_comp_cost(unit[0], fid)
                return (
                    tracker.projected_load(
                        fid, tracker.comp_cost(fid) - old + price
                    )
                    <= stats.budgets[name]
                )

            if guards.exhausted:
                # Budget gone: cheapest-fragment fallback keeps every
                # unit placed (the outputs must still cover the graph).
                destinations = {}
            else:
                destinations = get_dest(pending, underloaded, fits)
            for name in pending:
                tracker = trackers[name]
                fid = destinations.get(name)
                if fid is None:
                    fid = sessions[name].scorer.cheapest()
                    stats.eassign_units += 1
                else:
                    stats.vassign_units += 1
                self._assign_unit(tracker.partition, unit, fid)
                guards.step(name)
                if tracker.load(fid) >= stats.budgets[name]:
                    underloaded[name].discard(fid)
