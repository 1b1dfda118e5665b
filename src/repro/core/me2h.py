"""Algorithm ME2H: composite edge-cut → hybrid refinement (Section 6.2, Fig. 6).

Given one edge-cut partition and the cost models of ``k`` algorithms,
ME2H produces ``k`` hybrid partitions at once — represented compactly as
a :class:`~repro.partition.composite.CompositePartition` — while keeping
the composite replication ratio ``f_c`` low:

* **Init** (Fig. 7) walks each input fragment in BFS order and keeps the
  longest affordable prefix *simultaneously* for every algorithm — those
  shared prefixes become the cores ``C_i``, stored once;
* **VAssign** routes each leftover candidate through
  :func:`~repro.core.getdest.get_dest`, covering as many algorithms per
  placed copy as possible (greedy set cover);
* **EAssign** splits candidates that fit nowhere whole — the super-nodes
  — edge by edge onto the cheapest fragments of each algorithm's
  partition;
* **MAssign** finishes each partition's master mapping as in E2H.
"""

from __future__ import annotations

import time
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.core.budget import compute_budget
from repro.core.candidates import bfs_order
from repro.core.dirty import IncrementalStats
from repro.core.driver import RefineSession
from repro.core.e2h import E2H
from repro.core.gaincache import GainCacheStats
from repro.core.getdest import get_dest
from repro.core.massign import massign
from repro.core.tracker import CostTracker
from repro.costmodel.model import CostModel
from repro.integrity.guard import (
    GuardConfig,
    GuardStats,
    RefinementBudgetExceeded,
    RefinementGuard,
)
from repro.partition.composite import CompositePartition
from repro.partition.fragment import Edge
from repro.partition.hybrid import HybridPartition
from repro.runtime.clusterspec import ClusterSpec, coerce_cluster_spec

Unit = Tuple[int, Tuple[Edge, ...]]  # (vertex, incident edges) candidate


@dataclass
class CompositeStats:
    """Bookkeeping of one composite refinement run (feeds Exp-4)."""

    budgets: Dict[str, float] = field(default_factory=dict)
    core_units: int = 0
    vassign_units: int = 0
    eassign_units: int = 0
    phase_seconds: Dict[str, float] = field(default_factory=dict)
    guard: Dict[str, GuardStats] = field(default_factory=dict)
    gain_cache: Dict[str, GainCacheStats] = field(default_factory=dict)
    #: Summed h/g funnel requests across outputs.
    rescoring_calls: int = 0
    #: Per-output dirty-region scopes (incremental passes only).
    incremental: Dict[str, "IncrementalStats"] = field(default_factory=dict)


class _GuardSet:
    """Per-output guards of a composite refinement.

    The composite refiners build ``k`` output partitions *up* from
    empty, so two semantics differ from the single-partition guard:
    there is no best-so-far snapshot to fall back to (the sessions are
    opened with an ``output_name``), and a budget exhaustion must
    not abort — the remaining units still need homes for the outputs to
    be valid.  Exhaustion instead flips :attr:`exhausted`, which the
    phases read to fall back to cheapest-fragment assignment (the
    degraded-but-valid "best so far" of a constructive algorithm).
    """

    def __init__(self, sessions: Dict[str, RefineSession]) -> None:
        self.guards: Dict[str, RefinementGuard] = {
            name: session.guard
            for name, session in sessions.items()
            if session.guard is not None
        }
        self.exhausted = False

    def step(self, name: str) -> None:
        guard = self.guards.get(name)
        if guard is None or self.exhausted:
            return
        try:
            guard.step()
        except RefinementBudgetExceeded:
            self.exhausted = True

    def finish(self) -> None:
        for guard in self.guards.values():
            guard.finish(early_stopped=self.exhausted)


@contextmanager
def timed_phase(stats: CompositeStats, name: str):
    """Record the block's wall time as ``stats.phase_seconds[name]``."""
    start = time.perf_counter()
    yield
    stats.phase_seconds[name] = time.perf_counter() - start


def massign_outputs(sessions: Dict[str, RefineSession], guards: _GuardSet) -> None:
    """MAssign on every output, as in E2H; stops at budget exhaustion."""
    for name, session in sessions.items():
        if guards.exhausted:
            break
        try:
            massign(
                session.tracker, session.scorer, guard=guards.guards.get(name)
            )
        except RefinementBudgetExceeded:
            guards.exhausted = True


def composite_pass(refiner, partition: HybridPartition) -> CompositePartition:
    """The k-output pass shared by ME2H and MV2H.

    Budgets come from the *input* partition's per-model costs (Fig. 6
    l.1; per unit of speed when a spec is active).  Each algorithm then
    gets a fresh output partition inside its own
    :class:`~repro.core.driver.RefineSession`; the refiner's
    ``_run_phases`` fills them.  Publishes ``refiner.last_stats``.
    """
    stats = CompositeStats()
    for name, model in refiner.cost_models.items():
        input_tracker = CostTracker(partition, model, spec=refiner.cluster_spec)
        stats.budgets[name] = compute_budget(input_tracker, refiner.budget_slack)
        input_tracker.detach()
    outputs: Dict[str, HybridPartition] = {
        name: HybridPartition(partition.graph, partition.num_fragments)
        for name in refiner.cost_models
    }
    with ExitStack() as stack:
        sessions = {
            name: stack.enter_context(
                RefineSession(
                    outputs[name],
                    refiner.cost_models[name],
                    refiner.guard_config,
                    refiner.cluster_spec,
                    output_name=name,
                )
            )
            for name in outputs
        }
        guards = _GuardSet(sessions)
        refiner._run_phases(partition, sessions, stats, guards)
        guards.finish()
    for name, session in sessions.items():
        if session.guard_stats is not None:
            stats.guard[name] = session.guard_stats
        stats.gain_cache[name] = session.scorer.stats
        stats.rescoring_calls += session.counted.calls
    refiner.last_stats = stats
    return CompositePartition(outputs)


def maintain_outputs(
    refiner, composite: CompositePartition, dirty_vertices
) -> CompositePartition:
    """Dirty-region maintenance of a composite's outputs (DESIGN §15).

    Each output partition gets an in-place incremental pass over the
    dirty frontier from ``refiner._worker(model)``, kept per algorithm
    in ``refiner._maintainers`` so tracker seeds carry over from batch
    to batch (the first pass on a given composite is cold).  The
    composite core/residual index is rebuilt once at the end.
    Per-output bookkeeping lands in ``refiner.last_stats``.
    """
    stats = CompositeStats()
    for name in composite.names:
        worker = refiner._maintainers.get(name)
        if worker is None:
            worker = refiner._maintainers[name] = refiner._worker(
                refiner.cost_models[name]
            )
        worker.refine_incremental(composite.partitions[name], dirty_vertices)
        wstats = worker.last_stats
        stats.budgets[name] = wstats.budget
        if wstats.guard is not None:
            stats.guard[name] = wstats.guard
        stats.gain_cache[name] = wstats.gain_cache
        stats.phase_seconds[name] = sum(wstats.phase_seconds.values())
        stats.rescoring_calls += wstats.rescoring_calls
        stats.incremental[name] = wstats.incremental
    composite.rebuild_index()
    refiner.last_stats = stats
    return composite


class ME2H:
    """Composite edge-cut refiner for a batch of algorithms."""

    def __init__(
        self,
        cost_models: Dict[str, CostModel],
        budget_slack: float = 1.2,
        use_getdest: bool = True,
        guard_config: Optional[GuardConfig] = None,
        cluster_spec: Optional[ClusterSpec] = None,
    ) -> None:
        if not cost_models:
            raise ValueError("ME2H needs at least one cost model")
        self.cost_models = dict(cost_models)
        self.budget_slack = budget_slack
        # Ablation switch: with GetDest disabled, VAssign places each
        # algorithm's leftover independently (first feasible fragment),
        # forfeiting the set-cover sharing that keeps f_c low.
        self.use_getdest = use_getdest
        self.guard_config = guard_config
        self.cluster_spec = coerce_cluster_spec(cluster_spec)
        self.last_stats: Optional[CompositeStats] = None
        # Persistent per-algorithm dirty-region workers: their tracker
        # seeds survive across mutation batches (DESIGN §15).
        self._maintainers: Dict[str, E2H] = {}

    def _worker(self, model: CostModel) -> E2H:
        return E2H(
            model,
            budget_slack=self.budget_slack,
            guard_config=self.guard_config,
            cluster_spec=self.cluster_spec,
        )

    def refine_incremental(
        self, composite: CompositePartition, dirty_vertices
    ) -> CompositePartition:
        """Dirty-region maintenance: an in-place incremental E2H pass per
        output (see :func:`maintain_outputs`)."""
        return maintain_outputs(self, composite, dirty_vertices)

    def refine(self, partition: HybridPartition) -> CompositePartition:
        """Produce a composite partition from an edge-cut input."""
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
            residue = self._phase_vassign(leftovers, sessions, stats, guards)
        with timed_phase(stats, "eassign"):
            self._phase_eassign(residue, sessions, stats, guards)
        with timed_phase(stats, "massign"):
            massign_outputs(sessions, guards)

    # ------------------------------------------------------------------
    def _units(self, partition: HybridPartition) -> List[List[Unit]]:
        """Candidate units per input fragment: e-cut homes + full edges."""
        graph = partition.graph
        per_fragment: List[List[Unit]] = [[] for _ in range(partition.num_fragments)]
        for v in graph.vertices:
            home = partition.designated_home(v)
            if home is None:
                home = partition.master(v)
            per_fragment[home].append((v, tuple(graph.incident_edges(v))))
        # BFS order within each fragment preserves locality (procedure Init).
        ordered: List[List[Unit]] = []
        for fid, units in enumerate(per_fragment):
            rank = {v: pos for pos, v in enumerate(bfs_order(partition, fid))}
            units.sort(key=lambda unit: rank.get(unit[0], len(rank)))
            ordered.append(units)
        return ordered

    @staticmethod
    def _assign_unit(
        output: HybridPartition, unit: Unit, fid: int
    ) -> None:
        v, edges = unit
        if edges:
            output.transfer_star(v, edges, fid)
        else:
            output.add_vertex_to(fid, v)
        output.set_master(v, fid)

    def _phase_init(
        self,
        units_by_fragment: List[List[Unit]],
        sessions: Dict[str, RefineSession],
        stats: CompositeStats,
        guards: _GuardSet,
    ) -> List[Tuple[int, Unit, Set[str]]]:
        """Procedure Init: shared BFS prefixes become the cores C_i.

        Returns leftovers as ``(origin fragment, unit, algorithms still
        needing a destination)``.
        """
        leftovers: List[Tuple[int, Unit, Set[str]]] = []
        # Per-output lookups hoisted out of the per-unit loop.
        lanes = [
            (name, s.tracker, s.scorer.price_as_ecut, stats.budgets[name])
            for name, s in sessions.items()
        ]
        for fid, units in enumerate(units_by_fragment):
            for unit in units:
                if guards.exhausted:
                    # Budget gone: defer everything to the fast path.
                    leftovers.append((fid, unit, set(sessions)))
                    continue
                pending: Set[str] = set()
                accepted_all = True
                for name, tracker, price_as_ecut, budget in lanes:
                    price = price_as_ecut(unit[0])
                    if (
                        tracker.projected_load(
                            fid, tracker.comp_cost(fid) + price
                        )
                        <= budget
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
    ) -> List[Tuple[Unit, Set[str]]]:
        """VAssign (Fig. 6 lines 8-13): set-cover destinations for leftovers."""
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
        residue: List[Tuple[Unit, Set[str]]] = []
        for _origin, unit, pending in leftovers:
            if guards.exhausted:
                residue.append((unit, set(pending)))
                continue
            prices = {
                name: sessions[name].scorer.price_as_ecut(unit[0])
                for name in pending
            }

            def fits(name: str, fid: int) -> bool:
                tracker = trackers[name]
                return (
                    tracker.projected_load(
                        fid, tracker.comp_cost(fid) + prices[name]
                    )
                    <= stats.budgets[name]
                )

            if self.use_getdest:
                destinations = get_dest(pending, underloaded, fits)
            else:
                destinations = {}
                for name in pending:
                    for fid in sorted(underloaded.get(name, ())):
                        if fits(name, fid):
                            destinations[name] = fid
                            break
            for name, fid in destinations.items():
                self._assign_unit(trackers[name].partition, unit, fid)
                stats.vassign_units += 1
                guards.step(name)
                if trackers[name].load(fid) >= stats.budgets[name]:
                    underloaded[name].discard(fid)
            unplaced = pending - set(destinations)
            if unplaced:
                residue.append((unit, unplaced))
        return residue

    def _phase_eassign(
        self,
        residue: List[Tuple[Unit, Set[str]]],
        sessions: Dict[str, RefineSession],
        stats: CompositeStats,
        guards: _GuardSet,
    ) -> None:
        """EAssign (Fig. 6 lines 14-18): split leftover units edge by edge."""
        for unit, names in residue:
            v, edges = unit
            for name in names:
                output = sessions[name].partition
                cheapest = sessions[name].scorer.cheapest
                stats.eassign_units += 1
                if not edges:
                    output.add_vertex_to(cheapest(), v)
                    guards.step(name)
                    continue
                for edge in edges:
                    output.add_edge_to(cheapest(), edge)
                    guards.step(name)
