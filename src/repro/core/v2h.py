"""Algorithm V2H: vertex-cut → hybrid refinement (Section 5.2, Fig. 4).

Vertex-cuts balance edges well but scatter each vertex's edges across
copies, hurting locality.  Guided by ``h_A``, V2H:

* *VMigrate* — moves v-cut copies (with their local edges) from
  overloaded fragments into an **existing copy** of the same vertex at an
  underloaded fragment, simultaneously balancing cost and reducing the
  replication r(v) by one;
* *VMerge* — turns v-cut nodes of underloaded fragments into e-cut nodes
  by pulling in their missing edges (migrating or replicating each based
  on the far endpoint's needs), removing their synchronization cost
  entirely (Example 12: this is what makes TC's verification local);
* *MAssign* — redistributes the remaining communication as in E2H.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.driver import PassState
from repro.core.e2h import RefineStats, SingleOutputRefiner
from repro.core.operations import vmerge, vmigrate
from repro.core.tracker import CostTracker, TrackerSeed
from repro.costmodel.features import hypothetical_key
from repro.costmodel.model import CostModel
from repro.integrity.guard import GuardConfig
from repro.partition.fragment import Edge
from repro.partition.hybrid import NodeRole
from repro.runtime.clusterspec import ClusterSpec, coerce_cluster_spec


def merged_price(tracker: CostTracker, v: int, src: int, dst: int) -> float:
    """h_A of the merged copy at ``dst`` after absorbing the src copy."""
    partition = tracker.partition
    src_frag = partition.fragments[src]
    dst_frag = partition.fragments[dst]
    extra = src_frag.incident(v) - dst_frag.incident(v)
    added_in = 0
    added_out = 0
    for edge in extra:
        if partition.graph.directed:
            if edge[1] == v:
                added_in += 1
            if edge[0] == v:
                added_out += 1
        else:
            added_in += 1
            added_out += 1
    key = hypothetical_key(
        partition,
        v,
        tracker.avg_degree,
        dst_frag.local_in_degree(v) + added_in,
        dst_frag.local_out_degree(v) + added_out,
        dst_frag.incident_count(v) + len(extra),
        ecut=partition.role(v, dst) is NodeRole.ECUT,
        master=partition.master(v) == dst,
    )
    # Evaluate through the tracker's model (the session's memo).
    return tracker.cost_model.h_key(key)


def vmigrate_fits(state: PassState, v: int, src: int, dst: int) -> bool:
    """VMigrate's rule: ``v``'s copy at ``dst``, merged with its ``src``
    copy, keeps ``dst`` within budget."""
    tracker = state.tracker
    new_price = merged_price(tracker, v, src, dst)
    old_price = tracker.copy_comp_cost(v, dst)
    return (
        tracker.projected_load(dst, tracker.comp_cost(dst) - old_price + new_price)
        <= state.budget
    )


def vcut_promotions(state: PassState, fid: int) -> list:
    """V-cut copies at ``fid`` VMerge may promote, cheapest first.

    None unless ``fid`` is within budget (and, under a dirty scope,
    touched).  Fewest missing edges first, ties broken by vertex id
    (fragment insertion order is not stable across builds).  A dirty
    scope only offers frontier members.
    """
    scope = state.scope
    if scope is not None and fid not in scope.touched:
        return []
    if state.tracker.load(fid) > state.budget:
        return []
    partition = state.partition
    fragment = partition.fragments[fid]
    frontier = None if scope is None else scope.frontier
    vcuts = [
        v
        for v in fragment.vertices()
        if (frontier is None or v in frontier)
        and partition.role(v, fid) is NodeRole.VCUT
    ]
    vcuts.sort(
        key=lambda v: (
            partition.global_incident_count(v) - fragment.incident_count(v),
            v,
        )
    )
    return vcuts


def vmerge_missing(state: PassState, v: int, fid: int) -> Optional[List[Edge]]:
    """VMerge's rule: the edges that promoting ``v``'s v-cut copy at
    ``fid`` pulls in, or ``None`` when the promotion would go over budget."""
    tracker = state.tracker
    fragment = state.partition.fragments[fid]
    missing = [
        edge for edge in state.partition.graph.incident_edges(v)
        if not fragment.has_edge(edge)
    ]
    new_price = state.scorer.price_as_ecut(v)
    old_price = tracker.copy_comp_cost(v, fid)
    if (
        tracker.projected_load(fid, tracker.comp_cost(fid) - old_price + new_price)
        > state.budget
    ):
        return None
    return missing


class V2H(SingleOutputRefiner):
    """Vertex-cut → hybrid refiner driven by a cost model.

    ``cluster_spec`` activates capacity-aware balancing exactly as in
    :class:`~repro.core.e2h.E2H`: budgets and load comparisons are per
    unit of compute speed (equal shares when ``None``).
    """

    phases = ("vmigrate", "vmerge", "massign")
    role = NodeRole.VCUT

    def __init__(
        self,
        cost_model: CostModel,
        enable_vmigrate: bool = True,
        enable_vmerge: bool = True,
        enable_massign: bool = True,
        budget_slack: float = 1.0,
        vmerge_passes: int = 2,
        guard_config: Optional[GuardConfig] = None,
        cluster_spec: Optional[ClusterSpec] = None,
    ) -> None:
        self.cost_model = cost_model
        self.enable_vmigrate = enable_vmigrate
        self.enable_vmerge = enable_vmerge
        self.enable_massign = enable_massign
        self.budget_slack = budget_slack
        self.vmerge_passes = vmerge_passes
        self.guard_config = guard_config
        self.cluster_spec = coerce_cluster_spec(cluster_spec)
        self.last_stats: Optional[RefineStats] = None
        self.last_seed: Optional[TrackerSeed] = None

    def _phase_plan(self):
        return (
            ("vmigrate", self.enable_vmigrate, self._phase_vmigrate),
            ("vmerge", self.enable_vmerge, self._phase_vmerge),
            ("massign", self.enable_massign, self._phase_massign),
        )

    # ------------------------------------------------------------------
    def _phase_vmigrate(self, state: PassState) -> None:
        """Fig. 4 lines 6-10: merge v-cut copies into co-located copies."""
        partition = state.partition
        ascending = state.scorer.ascending
        for src, cand_list in state.candidates.items():
            remaining = []
            for v, edges in cand_list:
                if not state.holds(v, src, NodeRole.VCUT):
                    continue
                for dst in ascending(state.underloaded):
                    if partition.fragments[dst].has_vertex(v) and vmigrate_fits(
                        state, v, src, dst
                    ):
                        vmigrate(partition, v, src, dst)
                        state.stats.vmigrated += 1
                        state.step()
                        break
                else:
                    remaining.append((v, edges))
            state.candidates[src] = remaining

    def _phase_vmerge(self, state: PassState) -> None:
        """Fig. 4 lines 11-14: promote v-cut nodes to e-cut nodes.

        A dirty scope narrows the scan: only the touched fragments are
        visited and only frontier v-cuts considered for promotion.
        """
        partition = state.partition
        for _pass in range(self.vmerge_passes):
            merged_any = False
            for fid in state.scorer.ascending(range(partition.num_fragments)):
                for v in vcut_promotions(state, fid):
                    if not state.holds(v, fid, NodeRole.VCUT):
                        continue
                    missing = vmerge_missing(state, v, fid)
                    if missing is None:
                        continue
                    self._promote(state, v, fid, missing)
                    merged_any = True
            if not merged_any:
                break

    def _promote(self, state: PassState, v: int, fid: int, missing: List[Edge]) -> None:
        """VMerge's move: ``v``'s copy at ``fid`` takes its ``missing`` edges."""
        vmerge(state.partition, v, fid, missing)
        state.stats.vmerged += 1
        state.step()
