"""Composite refinement (Section 6) and Algorithm ME2H (Section 6.2, Fig. 6).

Given one partition and the cost models of ``k`` algorithms, a composite
refiner produces ``k`` hybrid partitions at once — represented compactly
as a :class:`~repro.partition.composite.CompositePartition` — while
keeping the composite replication ratio ``f_c`` low.
:class:`CompositeRefiner` is the procedure both cut types share:

* per-algorithm budgets from the *input* partition (Fig. 6 l.1);
* **Init** (Fig. 7) walks each input fragment in BFS order and keeps the
  longest affordable prefix *simultaneously* for every algorithm — those
  shared prefixes become the cores ``C_i``, stored once;
* **VAssign** routes each leftover candidate through
  :func:`~repro.core.getdest.get_dest`, covering as many algorithms per
  placed copy as possible (greedy set cover);
* a tail that depends on the cut type;
* **MAssign** finishes each partition's master mapping as in E2H.

Algorithms are walked in ``cost_models`` order throughout, so which
outputs still step after a shared step budget runs out never depends on
string hashing.

:class:`ME2H` is the edge-cut form: units are whole stars, and its tail
**EAssign** splits the candidates that fit nowhere whole — the
super-nodes — edge by edge onto the cheapest fragments of each
algorithm's partition.
"""

from __future__ import annotations

import time
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple

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
#: (input fragment, unit, algorithms still placing it in ``cost_models`` order)
Leftover = Tuple[int, Unit, List[str]]


@dataclass
class CompositeStats:
    """Bookkeeping of one composite refinement run (feeds Exp-4)."""

    budgets: Dict[str, float] = field(default_factory=dict)
    core_units: int = 0
    vassign_units: int = 0
    #: ME2H: units EAssign split; MV2H: units VAssign's fallback placed
    #: on the cheapest fragment.
    eassign_units: int = 0
    #: MV2H's VMerge tail: v-cut copies promoted, summed over outputs.
    vmerged: int = 0
    phase_seconds: Dict[str, float] = field(default_factory=dict)
    guard: Dict[str, GuardStats] = field(default_factory=dict)
    gain_cache: Dict[str, GainCacheStats] = field(default_factory=dict)
    #: Summed h/g funnel requests across outputs.
    rescoring_calls: int = 0
    #: Per-output dirty-region scopes (incremental passes only).
    incremental: Dict[str, "IncrementalStats"] = field(default_factory=dict)


class _CompositeRun:
    """One composite pass: its per-output sessions, stats and guards.

    The composite refiners build ``k`` output partitions *up* from
    empty, so two semantics differ from the single-partition guard:
    there is no best-so-far snapshot to fall back to (the sessions are
    opened with an ``output_name``), and a budget exhaustion must
    not abort — the remaining units still need homes for the outputs to
    be valid.  Exhaustion instead flips :attr:`exhausted`, which the
    phases read to fall back to cheapest-fragment assignment (the
    degraded-but-valid "best so far" of a constructive algorithm).
    """

    def __init__(
        self, sessions: Dict[str, RefineSession], stats: CompositeStats
    ) -> None:
        self.sessions = sessions
        self.stats = stats
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


class CompositeRefiner:
    """Fig. 6's skeleton for a batch of algorithms.

    A subclass supplies what differs by cut type:

    * ``_units(partition)`` — ``(input fragment, unit)`` candidates,
      fragment by fragment in BFS order (Init's locality);
    * ``_load(session, unit)`` — ``fid ↦`` the output's projected
      ``C_h(fid)`` with the unit placed there, pricing whatever does not
      depend on ``fid`` once;
    * ``_assign_unit(output, unit, fid)`` — place the unit;
    * ``_unplaced(session, stats)`` — the fragment a unit GetDest placed
      nowhere goes to now, or ``None`` to leave it to the tail;
    * ``tail`` and ``_tail(run, residue)`` — the phase between VAssign
      and MAssign, given the units VAssign left to it.
    """

    #: The single-output refiner each output is maintained with.
    worker: type
    #: Name of the cut type's phase between VAssign and MAssign.
    tail: str
    #: VAssign places leftovers by GetDest's set cover (an ME2H ablation
    #: turns it off).
    use_getdest = True

    def __init__(
        self,
        cost_models: Dict[str, CostModel],
        budget_slack: float,
        guard_config: Optional[GuardConfig],
        cluster_spec: Optional[ClusterSpec],
    ) -> None:
        if not cost_models:
            raise ValueError(f"{type(self).__name__} needs at least one cost model")
        self.cost_models = dict(cost_models)
        self.budget_slack = budget_slack
        self.guard_config = guard_config
        self.cluster_spec = coerce_cluster_spec(cluster_spec)
        self.last_stats: Optional[CompositeStats] = None
        # Persistent per-algorithm dirty-region workers: their tracker
        # seeds survive across mutation batches (DESIGN §15).
        self._maintainers: Dict[str, object] = {}

    def _worker(self, model: CostModel, **options):
        return self.worker(
            model,
            budget_slack=self.budget_slack,
            guard_config=self.guard_config,
            cluster_spec=self.cluster_spec,
            **options,
        )

    def refine(self, partition: HybridPartition) -> CompositePartition:
        """Produce a composite partition from the input partition.

        Budgets come from the input's per-model costs (Fig. 6 l.1; per
        unit of speed when a spec is active).  Each algorithm then gets
        a fresh output partition inside its own
        :class:`~repro.core.driver.RefineSession`, filled by the phases.
        Publishes :attr:`last_stats`.
        """
        stats = CompositeStats()
        for name, model in self.cost_models.items():
            input_tracker = CostTracker(partition, model, spec=self.cluster_spec)
            stats.budgets[name] = compute_budget(input_tracker, self.budget_slack)
            input_tracker.detach()
        outputs = {
            name: HybridPartition(partition.graph, partition.num_fragments)
            for name in self.cost_models
        }
        with ExitStack() as stack:
            sessions = {
                name: stack.enter_context(
                    RefineSession(
                        outputs[name],
                        model,
                        self.guard_config,
                        self.cluster_spec,
                        output_name=name,
                    )
                )
                for name, model in self.cost_models.items()
            }
            run = _CompositeRun(sessions, stats)
            self._run_phases(run, self._units(partition))
            run.finish()
        for name, session in sessions.items():
            if session.guard_stats is not None:
                stats.guard[name] = session.guard_stats
            stats.gain_cache[name] = session.model.stats
            stats.rescoring_calls += session.counted.calls
        self.last_stats = stats
        return CompositePartition(outputs)

    def refine_incremental(
        self, composite: CompositePartition, dirty_vertices
    ) -> CompositePartition:
        """Dirty-region maintenance of a composite's outputs (DESIGN §15).

        Each output gets an in-place incremental pass of its
        :attr:`worker` over the dirty frontier, kept per algorithm in
        ``_maintainers`` so tracker seeds carry over from batch to batch
        (the first pass on a given composite is cold).  The composite
        core/residual index is rebuilt once at the end.  Per-output
        bookkeeping lands in :attr:`last_stats`.
        """
        stats = CompositeStats()
        for name in composite.names:
            worker = self._maintainers.get(name)
            if worker is None:
                worker = self._maintainers[name] = self._worker(self.cost_models[name])
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
        self.last_stats = stats
        return composite

    # ------------------------------------------------------------------
    def _run_phases(self, run: _CompositeRun, units: List[Tuple[int, Unit]]) -> None:
        # Its own frame: the units are freed before the composite is indexed.
        with timed_phase(run.stats, "init"):
            leftovers = self._init(run, units)
        with timed_phase(run.stats, "vassign"):
            residue = self._vassign(run, leftovers)
        with timed_phase(run.stats, self.tail):
            self._tail(run, residue)
        with timed_phase(run.stats, "massign"):
            self._massign(run)

    def _init(self, run: _CompositeRun, units: List[Tuple[int, Unit]]) -> List[Leftover]:
        """Procedure Init: shared BFS prefixes become the cores C_i.

        Returns each unit some algorithm could not keep at home, with
        those algorithms.
        """
        budgets = run.stats.budgets
        leftovers: List[Leftover] = []
        for fid, unit in units:
            if run.exhausted:
                # Budget gone: defer everything to the fast path.
                leftovers.append((fid, unit, list(run.sessions)))
                continue
            pending = []
            for name, session in run.sessions.items():
                load = self._load(session, unit)(fid)
                if session.tracker.projected_load(fid, load) <= budgets[name]:
                    self._assign_unit(session.partition, unit, fid)
                    run.step(name)
                else:
                    pending.append(name)
            if pending:
                leftovers.append((fid, unit, pending))
            else:
                run.stats.core_units += 1
        return leftovers

    def _vassign(self, run: _CompositeRun, leftovers: List[Leftover]) -> List[Leftover]:
        """VAssign (Fig. 6 lines 8-13): set-cover destinations for leftovers.

        Returns the units some algorithm could not place, for the tail.
        """
        sessions, stats, budgets = run.sessions, run.stats, run.stats.budgets
        underloaded: Dict[str, Set[int]] = {
            name: {
                fid
                for fid in range(session.partition.num_fragments)
                if session.tracker.load(fid) < budgets[name]
            }
            for name, session in sessions.items()
        }
        residue: List[Leftover] = []
        for home, unit, pending in leftovers:
            destinations: Dict[str, Optional[int]] = {}
            if not run.exhausted:
                loads = {name: self._load(sessions[name], unit) for name in pending}

                def fits(name: str, fid: int) -> bool:
                    tracker = sessions[name].tracker
                    return tracker.projected_load(fid, loads[name](fid)) <= budgets[name]

                if self.use_getdest:
                    destinations = get_dest(pending, underloaded, fits)
                else:
                    # Each algorithm alone: its first feasible fragment.
                    destinations = {
                        name: next(
                            (fid for fid in sorted(underloaded[name]) if fits(name, fid)),
                            None,
                        )
                        for name in pending
                    }
            unplaced = []
            for name in pending:
                session = sessions[name]
                fid = destinations.get(name)
                if fid is None:
                    fid = self._unplaced(session, stats)
                    if fid is None:
                        unplaced.append(name)
                        continue
                else:
                    stats.vassign_units += 1
                self._assign_unit(session.partition, unit, fid)
                run.step(name)
                if session.tracker.load(fid) >= budgets[name]:
                    underloaded[name].discard(fid)
            if unplaced:
                residue.append((home, unit, unplaced))
        return residue

    def _massign(self, run: _CompositeRun) -> None:
        """MAssign on every output, as in E2H; stops at budget exhaustion."""
        for name, session in run.sessions.items():
            if run.exhausted:
                break
            try:
                massign(session.tracker, guard=run.guards.get(name))
            except RefinementBudgetExceeded:
                run.exhausted = True


class ME2H(CompositeRefiner):
    """Composite edge-cut refiner for a batch of algorithms."""

    worker = E2H
    tail = "eassign"

    def __init__(
        self,
        cost_models: Dict[str, CostModel],
        budget_slack: float = 1.2,
        use_getdest: bool = True,
        guard_config: Optional[GuardConfig] = None,
        cluster_spec: Optional[ClusterSpec] = None,
    ) -> None:
        super().__init__(cost_models, budget_slack, guard_config, cluster_spec)
        # Ablation switch: with GetDest disabled, VAssign places each
        # algorithm's leftover independently (first feasible fragment),
        # forfeiting the set-cover sharing that keeps f_c low.
        self.use_getdest = use_getdest

    def _units(self, partition: HybridPartition) -> List[Tuple[int, Unit]]:
        """E-cut homes with their full stars."""
        graph = partition.graph
        per_fragment: List[List[Unit]] = [[] for _ in range(partition.num_fragments)]
        for v in graph.vertices:
            home = partition.designated_home(v)
            if home is None:
                home = partition.master(v)
            per_fragment[home].append((v, tuple(graph.incident_edges(v))))
        ordered: List[Tuple[int, Unit]] = []
        for fid, units in enumerate(per_fragment):
            rank = {v: pos for pos, v in enumerate(bfs_order(partition, fid))}
            units.sort(key=lambda unit: rank.get(unit[0], len(rank)))
            ordered.extend((fid, unit) for unit in units)
        return ordered

    def _load(self, session: RefineSession, unit: Unit) -> Callable[[int], float]:
        # The star's e-cut price does not depend on the fragment; it is
        # priced before ``comp_cost`` is read (the tracker flushes lazily).
        price = session.tracker.price_as_ecut(unit[0])
        comp_cost = session.tracker.comp_cost
        return lambda fid: comp_cost(fid) + price

    @staticmethod
    def _assign_unit(output: HybridPartition, unit: Unit, fid: int) -> None:
        v, edges = unit
        if edges:
            output.transfer_star(v, edges, fid)
        else:
            output.add_vertex_to(fid, v)
        output.set_master(v, fid)

    def _unplaced(self, session: RefineSession, stats: CompositeStats) -> None:
        return None  # EAssign splits it

    def _tail(self, run: _CompositeRun, residue: List[Leftover]) -> None:
        """EAssign (Fig. 6 lines 14-18): split leftover units edge by edge."""
        for _home, (v, edges), names in residue:
            for name in names:
                output = run.sessions[name].partition
                cheapest = run.sessions[name].tracker.cheapest
                run.stats.eassign_units += 1
                if not edges:
                    output.add_vertex_to(cheapest(), v)
                    run.step(name)
                    continue
                for edge in edges:
                    output.add_edge_to(cheapest(), edge)
                    run.step(name)
