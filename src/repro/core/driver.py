"""The refinement driver: one stack, one scorer, one pass (DESIGN §8.1).

The paper's refiners are one skeleton — budget → GetCandidates →
migrate → split-or-merge → MAssign (Sections 5.1–5.2); the composites
are its k-output case (Section 6) and the Par variants charge the same
phases to a cluster (Section 5.3).  This module is that skeleton:

* :class:`RefineSession` builds the evaluation stack — guarded model →
  gain cache → counting layer → cost tracker → refinement guard — once
  per output partition, and is the only place that tears it down;
* ``session.scorer`` — the bound :class:`~repro.core.gaincache.GainCache`
  — answers every pricing question a phase body asks;
* :func:`run_pass` is the single-output pass body.  Its *scope* is
  data: ``None`` refines everything, a :class:`DirtyScope` narrows the
  pass to a dirty frontier (DESIGN §15) — a full pass is an incremental
  pass whose scope is everything;
* the *executor* is the only sequential/parallel difference in the
  skeleton, and owns the run's record: wall-clock phase seconds for
  E2H/V2H (:mod:`repro.core.e2h`), a simulated cluster's per-phase
  profile for ParE2H/ParV2H (:mod:`repro.core.parallel`).

Each phase's rule (admission test and move) is written once, next to
its sequential phase; the Par refiners subclass the sequential ones and
override only the batch schedules, which order moves differently by
design.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Set, Tuple

from repro.core.budget import classify_fragments, compute_budget
from repro.core.candidates import get_candidates
from repro.core.dirty import (
    IncrementalStats,
    RescoringModel,
    dirty_frontier,
    touched_fragments,
)
from repro.core.gaincache import GainCache
from repro.core.tracker import CostTracker, TrackerSeed
from repro.costmodel.guarded import guard_cost_model
from repro.costmodel.model import CostModel
from repro.integrity.guard import (
    GuardConfig,
    GuardStats,
    RefinementBudgetExceeded,
    RefinementGuard,
)
from repro.partition.hybrid import HybridPartition, NodeRole
from repro.runtime.clusterspec import ClusterSpec


class RefineSession:
    """The evaluation stack around one partition, built and torn down once.

    ``guard_config`` adds cost-model guardrails and the refinement
    guard; ``seed`` warm-starts the tracker.  ``output_name`` marks a
    composite output built *up* from empty: it drops best-so-far
    tracking (a constructive algorithm has no earlier valid state to
    fall back to).  ``scorer`` is the stack's bound
    :class:`~repro.core.gaincache.GainCache`.

    A context manager: leaving the block, normally or by exception,
    detaches every listener the stack put on the partition; so does a
    constructor that fails halfway.
    """

    def __init__(
        self,
        partition: HybridPartition,
        cost_model: CostModel,
        guard_config: Optional[GuardConfig],
        cluster_spec: Optional[ClusterSpec],
        seed: Optional[TrackerSeed] = None,
        output_name: Optional[str] = None,
    ) -> None:
        self.partition = partition
        self.guard_stats: Optional[GuardStats] = None
        self.scorer: Optional[GainCache] = None
        self.tracker: Optional[CostTracker] = None
        self.guard: Optional[RefinementGuard] = None
        try:
            model = cost_model
            if guard_config is not None:
                self.guard_stats = GuardStats()
                model = guard_cost_model(
                    cost_model,
                    on_intervention=self.guard_stats.note_cost_model_intervention,
                )
            # The memo wraps the (possibly guarded) model: values are
            # identical either way, and guardrail checks still apply to
            # every distinct evaluation.
            self.scorer = GainCache(partition, model)
            model = self.scorer.model
            #: The stack below the counting layer (what a nested pass
            #: over the same partition should evaluate through).
            self.model = model
            # Outermost counting layer: tallies the h/g requests the run
            # demands (values pass through untouched).
            self.counted = RescoringModel(model)
            self.tracker = CostTracker(
                partition, self.counted, spec=cluster_spec, seed=seed
            )
            self.scorer.bind(self.tracker)
            self.cost_before = self.tracker.parallel_cost()
            if guard_config is not None:
                self.guard = RefinementGuard(
                    partition,
                    guard_config,
                    stats=self.guard_stats,
                    # From-scratch evaluation: querying the tracker here
                    # would change its lazy-flush boundaries and perturb
                    # float accumulation order in the cached costs.
                    cost_fn=None
                    if output_name is not None
                    else (lambda: model.parallel_cost(partition)),
                )
        except BaseException:
            self.close()
            raise

    def close(self) -> None:
        """Detach the tracker and cache listeners."""
        if self.tracker is not None:
            self.tracker.detach()
        if self.scorer is not None:
            self.scorer.detach()

    def __enter__(self) -> "RefineSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


@dataclass
class DirtyScope:
    """Where a dirty-region pass may look (DESIGN §15).

    ``frontier`` — the batch's dirty vertices plus their graph
    neighbors — filters migration candidates and the merge scan;
    ``touched`` is the set of fragments hosting any frontier vertex;
    ``seed`` warm-starts the tracker.
    """

    dirty_in: Set[int]
    frontier: Set[int]
    touched: Set[int]
    entry_generation: int
    seed: Optional[TrackerSeed] = None

    @classmethod
    def around(
        cls,
        partition: HybridPartition,
        dirty_vertices: Iterable[int],
        seed: Optional[TrackerSeed] = None,
    ) -> "DirtyScope":
        dirty_in = {
            v for v in dirty_vertices if 0 <= v < partition.graph.num_vertices
        }
        frontier = dirty_frontier(partition.graph, dirty_in)
        return cls(
            dirty_in, frontier, touched_fragments(partition, frontier),
            partition.generation, seed,
        )

    def reassign(self, partition: HybridPartition) -> Set[int]:
        """The vertices MAssign must rescore.

        Only vertices whose Eq. 5 inputs changed: the batch's dirty
        vertices plus everything the movement phases just churned (a
        vertex's h/g features depend solely on its own placement and
        incident edges, all of which notify the journal).
        """
        moved = partition.mutations_since(self.entry_generation)
        return self.frontier if moved is None else self.dirty_in | moved


@dataclass
class PassState:
    """What the phase bodies of one pass share."""

    partition: HybridPartition
    tracker: CostTracker
    scorer: GainCache  #: the session's bound scorer
    guard: Optional[RefinementGuard]
    stats: Any  #: the executor's :class:`~repro.core.e2h.RefineStats`
    budget: float
    underloaded: List[int]
    candidates: Dict[int, List]
    scope: Optional[DirtyScope]
    cluster: Any = None  #: the Par executors' simulated Cluster

    def holds(self, v: int, fid: int, role: NodeRole) -> bool:
        """Whether ``fid`` still holds a ``role`` copy of ``v``: earlier
        moves may have pruned or restructured a queued candidate."""
        partition = self.partition
        return partition.fragments[fid].has_vertex(v) and partition.role(v, fid) is role

    def step(self) -> None:
        """Count one move against the guard's step budget, if guarded."""
        if self.guard is not None:
            self.guard.step()

    def massign_scope(self) -> Tuple[Optional[Set[int]], bool]:
        """``(vertices, residual)`` of the MAssign phase.

        Full scope keeps the literal ``(None, False)`` start: the
        residual base is only *mathematically* zero on the full border
        set, and bit-identity is the bar.  A dirty scope keeps the
        untouched masters' standing communication in the accumulators.
        """
        if self.scope is None:
            return None, False
        return self.scope.reassign(self.partition), True


def run_pass(
    refiner, partition, scope: Optional[DirtyScope], executor, capture_seed=True
):
    """One refinement pass of a single-output refiner, in place.

    ``refiner`` supplies the knobs (``cost_model``, ``guard_config``,
    ``cluster_spec``, ``budget_slack``, ``role``, ``candidate_order``)
    and ``_phase_plan()``: ``(name, enabled, body)`` triples whose
    bodies take the :class:`PassState`.  ``executor`` supplies the run's
    ``stats`` record, ``open(partition)`` (the Par cluster, or None),
    ``setup(select, state)``, ``phase(name, body, state)`` and
    ``result(partition)``, which is returned.  Publishes
    ``refiner.last_stats`` (and ``last_seed`` when ``capture_seed``).
    """
    stats = executor.stats
    if scope is not None:
        stats.incremental = IncrementalStats(
            dirty=len(scope.dirty_in),
            frontier=len(scope.frontier),
            fragments=len(scope.touched),
        )
    with RefineSession(
        partition,
        refiner.cost_model,
        refiner.guard_config,
        refiner.cluster_spec,
        seed=None if scope is None else scope.seed,
    ) as session:
        tracker = session.tracker
        if scope is not None:
            stats.incremental.seeded = tracker.seeded
        stats.cost_before = session.cost_before
        budget = stats.budget = compute_budget(tracker, refiner.budget_slack)
        overloaded, underloaded = classify_fragments(tracker, budget)
        stats.overloaded = len(overloaded)
        state = PassState(
            partition, tracker, session.scorer, session.guard, stats,
            budget, underloaded, {}, scope, executor.open(partition),
        )

        def select() -> None:
            for fid in overloaded:
                if scope is not None and fid not in scope.touched:
                    continue
                order = None
                if refiner.candidate_order == "arbitrary":
                    # Ablation: fragment-internal order instead of the
                    # locality-preserving BFS traversal (GetCandidates).
                    order = sorted(partition.fragments[fid].vertices())
                # The BFS walk itself prices nothing (cached per-copy
                # sums); under a dirty scope only frontier members move.
                found = get_candidates(
                    tracker, fid, tracker.keep_budget(fid, budget),
                    refiner.role, order=order,
                    only=None if scope is None else scope.frontier,
                )
                state.candidates[fid] = found
                stats.candidates += len(found)

        executor.setup(select, state)
        early_stopped = False
        try:
            for name, enabled, body in refiner._phase_plan():
                if enabled:
                    executor.phase(name, body, state)
        except RefinementBudgetExceeded:
            early_stopped = True
        if session.guard is not None:
            session.guard.finish(early_stopped=early_stopped)
        stats.cost_after = tracker.parallel_cost()
        if capture_seed:
            refiner.last_seed = tracker.snapshot()
    stats.guard = session.guard_stats
    stats.gain_cache = session.scorer.stats
    stats.rescoring_calls = session.counted.calls
    refiner.last_stats = stats
    return executor.result(partition)
