"""Parallel refiners ParE2H / ParV2H / ParME2H / ParMV2H (Section 5.3, 6.4).

ParE2H and ParV2H subclass E2H and V2H: every phase applies the same
rule (admission test and move, written once beside the sequential
phase), and only the schedule is restructured into BSP supersteps on
the runtime simulator:

* **parallel EMigrate** — each overloaded worker ships a small batch of
  migration candidates to the underloaded workers round-robin; receivers
  accept within budget or bounce the candidate to the next worker;
* **parallel ESplit / VMerge** — overloaded (resp. underloaded) workers
  process batches of edges (resp. v-cut promotions) per superstep against
  the shared cost state, synchronized at each barrier;
* **parallel MAssign** — each worker assigns batches of the border
  vertices it masters by Eq. 5 against shared accumulators.

Because the simulator executes supersteps on one machine, intra-superstep
updates are serialized (the shared state a worker sees is at most one
batch stale, never a full superstep stale); the cost clock still charges
genuine per-superstep maxima, which is what the Exp-3/4/5 timing figures
measure.  Charges: ``c1``/``c2`` abstract ops per h/g evaluation and the
per-candidate message sizes of the Section 5.3 analysis.

ParME2H and ParMV2H subclass ME2H and MV2H, whose Init and GetDest are
fragment-local (Section 6.4): the phases run as sequentially, and the
cluster is charged from each phase's per-worker work lists.
"""

from __future__ import annotations

import time
from collections import defaultdict
from itertools import chain
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.driver import PassState
from repro.core.e2h import E2H, RefineStats, fits, split_edge, split_edges
from repro.core.massign import eq5_pass
from repro.core.me2h import ME2H, CompositeStats
from repro.core.mv2h import MV2H
from repro.core.operations import emigrate, vmigrate
from repro.core.v2h import V2H, vcut_promotions, vmerge_missing, vmigrate_fits
from repro.costmodel.model import CostModel
from repro.integrity.guard import GuardConfig
from repro.partition.hybrid import HybridPartition, NodeRole
from repro.runtime.bsp import Cluster
from repro.runtime.clusterspec import ClusterSpec
from repro.runtime.costclock import CostClock

C1_OPS = 4.0  # abstract ops per h_A evaluation (Section 5.3's c1)
C2_OPS = 4.0  # abstract ops per g_A evaluation (c2)
STATE_SYNC_BYTES = 8.0  # shared-state delta per worker per superstep (c3)


@dataclass
class RefinementProfile:
    """Per-phase simulated timing of one parallel refinement."""

    phase_times: Dict[str, float] = field(default_factory=dict)
    phase_supersteps: Dict[str, int] = field(default_factory=dict)
    total_time: float = 0.0
    wall_seconds: float = 0.0
    stats: Optional[RefineStats] = None
    composite_stats: Optional[CompositeStats] = None


def _sync_state(cluster: Cluster) -> None:
    """Charge the shared-state synchronization of one superstep barrier:
    every worker sends its delta to every other (a local send is free)."""
    workers, n = cluster.workers, cluster.num_workers
    cluster.send_batch(np.repeat(workers, n), np.tile(workers, n), STATE_SYNC_BYTES)
    cluster.deliver()


class _Round:
    """One superstep of a Par phase: the candidates, edges and master
    moves it ships carry no payload anyone reads, so its messages and op
    charges are collected and accounted at the barrier by one
    ``send_batch`` and one ``charge_bulk``.  Byte and op counts are
    integers, so the bulk sums equal the per-item ones exactly."""

    def __init__(self, cluster: Cluster) -> None:
        self.cluster = cluster
        self.sends: List[Tuple[int, int, float]] = []
        self.charges: List[Tuple[int, float]] = []

    def send(self, src: int, dst: int, nbytes: float) -> None:
        self.sends.append((src, dst, nbytes))

    def charge(self, fid: int, ops: float) -> None:
        self.charges.append((fid, ops))

    def barrier(self) -> None:
        cluster = self.cluster
        if self.sends:
            src, dst, nbytes = zip(*self.sends)
            cluster.send_batch(np.array(src, np.int64), np.array(dst, np.int64), np.array(nbytes))
        if self.charges:
            fids, ops = zip(*self.charges)
            cluster.charge_bulk(np.array(fids, np.int64), np.array(ops, np.float64))
        self.sends.clear()
        self.charges.clear()
        _sync_state(cluster)


class _ClusterExecutor:
    """Par executor: phases charged to a simulated cluster (Section 5.3).

    The driver's skeleton is the sequential one; this executor is the
    whole difference — a :class:`Cluster` the phase bodies charge, a
    per-phase makespan/superstep meter, and the ``setup`` superstep
    (each overloaded worker scans its fragment for candidates, then
    everyone synchronizes).  ParME2H / ParMV2H meter their phases on it.
    """

    def __init__(self, refiner) -> None:
        self.refiner = refiner
        self.wall_start = time.perf_counter()
        self.stats = RefineStats()
        self.profile = RefinementProfile(stats=self.stats)

    def open(self, partition: HybridPartition) -> Cluster:
        self.cluster = Cluster(
            partition, clock=self.refiner.clock, spec=self.refiner.cluster_spec
        )
        return self.cluster

    def meter(self, name: str, body) -> None:
        """Run ``body``; record its makespan/superstep deltas as ``name``."""
        clock = self.cluster.profile
        makespan, supersteps = clock.makespan, clock.num_supersteps
        body()
        self.profile.phase_times[name] = clock.makespan - makespan
        self.profile.phase_supersteps[name] = clock.num_supersteps - supersteps

    def setup(self, select: Callable[[], None], state: PassState) -> None:
        def body() -> None:
            select()
            for fid in state.candidates:
                self.cluster.charge(fid, state.partition.fragments[fid].num_vertices)
            _sync_state(self.cluster)

        self.meter("setup", body)

    def phase(self, name: str, body, state: PassState) -> None:
        self.meter(name, lambda: body(state))

    def result(
        self, partition: HybridPartition
    ) -> Tuple[HybridPartition, RefinementProfile]:
        self.profile.total_time = self.cluster.profile.makespan
        self.profile.wall_seconds = time.perf_counter() - self.wall_start
        return partition, self.profile


def _supersteps(cluster: Cluster, work: Dict[int, List], size: int):
    """Yield ``(round, worker, batch)``: each worker's next ``size`` work
    items in turn, then a barrier; items a body appends to a worker's
    list join a later round.  Ends when every list is empty."""
    superstep = _Round(cluster)
    while any(work.values()):
        for fid in list(work):
            batch, work[fid] = work[fid][:size], work[fid][size:]
            yield superstep, fid, batch
        superstep.barrier()


def _by_master(partition: HybridPartition, vertices=None) -> Dict[int, List[int]]:
    """Par MAssign's work lists: the border vertices (of ``vertices``, if
    given) each worker masters, ascending."""
    work: Dict[int, List[int]] = {fid: [] for fid in range(partition.num_fragments)}
    for v, hosts in partition.vertex_fragments():
        if len(hosts) > 1 and (vertices is None or v in vertices):
            work[partition.master(v)].append(v)
    return work


class _ParRefiner:
    """The Par half of ParE2H / ParV2H: the sequential refiner's pass
    through a :class:`_ClusterExecutor`, with batched phase schedules.

    ``refine`` / ``refine_incremental`` return ``(partition, profile)``
    and publish the pass's :class:`RefineStats` as :attr:`last_stats`
    as well as ``profile.stats``.
    """

    batch_size: int

    def _executor(self) -> "_ClusterExecutor":
        return _ClusterExecutor(self)

    def _phase_massign(self, state: PassState) -> None:
        """Eq. 5 in batches: each worker assigns the border vertices it
        masters against the shared accumulators."""
        vertices, residual = state.massign_scope()
        work = _by_master(state.partition, vertices)
        assign = eq5_pass(
            state.tracker, state.scorer, chain.from_iterable(work.values()), residual
        )
        for superstep, fid, batch in _supersteps(state.cluster, work, self.batch_size):
            for v in batch:
                hosts, current, best = assign(v)
                if len(hosts) < 2:
                    continue
                superstep.charge(fid, (C1_OPS + C2_OPS) * len(hosts))
                if current != best:
                    superstep.send(fid, best, 12.0)
                    state.stats.master_moves += 1
                    state.step()


class ParE2H(_ParRefiner, E2H):
    """Parallel E2H on the BSP simulator."""

    def __init__(
        self,
        cost_model: CostModel,
        batch_size: int = 32,
        clock: Optional[CostClock] = None,
        enable_emigrate: bool = True,
        enable_esplit: bool = True,
        enable_massign: bool = True,
        budget_slack: float = 1.0,
        guard_config: Optional[GuardConfig] = None,
        cluster_spec: Optional[ClusterSpec] = None,
    ) -> None:
        super().__init__(
            cost_model, enable_emigrate, enable_esplit, enable_massign, budget_slack,
            guard_config=guard_config, cluster_spec=cluster_spec,
        )
        self.batch_size = batch_size
        self.clock = clock or CostClock()

    def _phase_emigrate(self, state: PassState) -> None:
        """Round-robin batched candidate shipping (Section 5.3)."""
        underloaded, candidates = state.underloaded, state.candidates
        if not underloaded:
            return
        # Bounced candidates re-price on every retry; the gain cache
        # serves repeats until v is mutated.
        price_as_ecut = state.scorer.price_as_ecut
        # Per-source queues of (vertex, edges, attempts).
        queues: Dict[int, List] = {
            src: [(v, edges, 0) for v, edges in cand_list]
            for src, cand_list in candidates.items()
        }
        leftovers: Dict[int, List] = {src: [] for src in candidates}
        for superstep, src, batch in _supersteps(state.cluster, queues, self.batch_size):
            for v, edges, attempts in batch:
                if not state.holds(v, src, NodeRole.ECUT):
                    continue
                dst = underloaded[attempts]
                superstep.send(src, dst, 16.0 + 8.0 * len(edges))
                superstep.charge(dst, C1_OPS)
                if fits(state, dst, price_as_ecut(v)):
                    emigrate(state.partition, v, src, dst)
                    state.stats.emigrated += 1
                    state.step()
                elif attempts + 1 < len(underloaded):
                    queues[src].append((v, edges, attempts + 1))
                else:
                    leftovers[src].append((v, edges))
        candidates.update(leftovers)

    def _phase_esplit(self, state: PassState) -> None:
        """Batched greedy edge splitting against shared cost state."""
        pending: Dict[int, List] = {}
        for src, cand_list in state.candidates.items():
            pending[src] = [
                (v, edge) for v, _snapshot in cand_list
                for edge in split_edges(state, src, v)
            ]
            state.candidates[src] = []
        for superstep, src, batch in _supersteps(state.cluster, pending, self.batch_size):
            for v, edge in batch:
                superstep.charge(src, C1_OPS)
                target = split_edge(state, v, edge, src)
                if target is not None:
                    superstep.send(src, target, 24.0)


class ParV2H(_ParRefiner, V2H):
    """Parallel V2H on the BSP simulator."""

    def __init__(
        self,
        cost_model: CostModel,
        batch_size: int = 32,
        clock: Optional[CostClock] = None,
        enable_vmigrate: bool = True,
        enable_vmerge: bool = True,
        enable_massign: bool = True,
        budget_slack: float = 1.0,
        vmerge_passes: int = 2,
        guard_config: Optional[GuardConfig] = None,
        cluster_spec: Optional[ClusterSpec] = None,
    ) -> None:
        super().__init__(
            cost_model, enable_vmigrate, enable_vmerge, enable_massign, budget_slack,
            vmerge_passes, guard_config=guard_config, cluster_spec=cluster_spec,
        )
        self.batch_size = batch_size
        self.clock = clock or CostClock()

    def _phase_vmigrate(self, state: PassState) -> None:
        """Each candidate tries the underloaded co-hosts of ``v`` in turn,
        one per superstep, until one accepts it."""
        partition = state.partition
        queues: Dict[int, List] = {
            src: [(v, edges, 0) for v, edges in cand_list]
            for src, cand_list in state.candidates.items()
        }
        for superstep, src, batch in _supersteps(state.cluster, queues, self.batch_size):
            for v, edges, attempts in batch:
                if not state.holds(v, src, NodeRole.VCUT):
                    continue
                hosts = [
                    fid for fid in state.underloaded
                    if partition.fragments[fid].has_vertex(v)
                ]
                if attempts >= len(hosts):
                    continue
                dst = hosts[attempts]
                superstep.send(src, dst, 16.0 + 8.0 * len(edges))
                superstep.charge(dst, C1_OPS)
                if vmigrate_fits(state, v, src, dst):
                    vmigrate(partition, v, src, dst)
                    state.stats.vmigrated += 1
                    state.step()
                else:
                    queues[src].append((v, edges, attempts + 1))

    def _phase_vmerge(self, state: PassState) -> None:
        """Each underloaded worker promotes its own v-cut nodes in batches."""
        partition = state.partition
        for _pass in range(self.vmerge_passes):
            merged_any = False
            work = {
                fid: vcut_promotions(state, fid)
                for fid in range(partition.num_fragments)
            }
            for superstep, fid, batch in _supersteps(state.cluster, work, self.batch_size):
                for v in batch:
                    if not state.holds(v, fid, NodeRole.VCUT):
                        continue
                    missing = vmerge_missing(state, v, fid)
                    superstep.charge(fid, C1_OPS)
                    if missing is None:
                        continue
                    for _edge in missing:
                        superstep.send(partition.master(v), fid, 16.0)
                    self._promote(state, v, fid, missing)
                    merged_any = True
            if not merged_any:
                break


class _ParComposite:
    """The Par half of ParME2H / ParMV2H: ME2H / MV2H metered on the BSP
    simulator.  Init and GetDest are fragment-local (Section 6.4), so the
    phases run as in the sequential refiner and note their work as
    per-worker lists; ``refine`` then charges each item through
    :func:`_supersteps`: ``c1`` ops per algorithm for every unit at its
    input fragment (Init, 8 bytes) and each leftover there (VAssign, 24
    bytes), ``c1`` for each tail item (:attr:`tail_bytes`), ``c1 + c2``
    for each output's border vertices at their master (MAssign, 12
    bytes).  A worker's list holds its items of every output, so a phase
    takes as many rounds as its busiest worker needs.  The phases record
    no destination for an item, so its message goes to the next worker.
    Returns ``(composite, profile)``; the pass's :class:`CompositeStats`
    is :attr:`last_stats` and ``profile.composite_stats``.
    """

    def refine(self, partition: HybridPartition):
        executor = _ClusterExecutor(self)
        self._work: Dict[str, Dict[int, List[int]]] = {}
        composite = super().refine(partition)
        cluster = executor.open(partition)
        executor.profile.stats, executor.profile.composite_stats = None, self.last_stats
        h_ops = C1_OPS * len(self.cost_models)
        for name, ops, nbytes in (
            ("init", h_ops, 8.0),
            ("vassign", h_ops, 24.0),
            (self.tail, C1_OPS, self.tail_bytes),
            ("massign", C1_OPS + C2_OPS, 12.0),
        ):
            work = self._work.pop(name, {})
            executor.meter(name, lambda: self._charge(cluster, work, ops, nbytes))
        return executor.result(composite)

    def refine_incremental(self, composite, dirty_vertices):
        name = type(self).__name__
        raise NotImplementedError(
            f"{name} has no incremental pass; use {name[3:]}.refine_incremental"
        )

    def _note(self, name: str) -> Dict[int, List[int]]:
        """Phase ``name``'s per-worker work lists."""
        return self._work.setdefault(name, defaultdict(list))

    def _charge(self, cluster: Cluster, work, ops: float, nbytes: float) -> None:
        n = cluster.num_workers
        for superstep, fid, batch in _supersteps(cluster, work, self.batch_size):
            for _v in batch:
                superstep.charge(fid, ops)
                superstep.send(fid, (fid + 1) % n, nbytes)

    def _init(self, run, units):
        work = self._note("init")
        for fid, (v, _edges) in units:
            work[fid].append(v)
        return super()._init(run, units)

    def _vassign(self, run, leftovers):
        work = self._note("vassign")
        for fid, (v, _edges), _pending in leftovers:
            work[fid].append(v)
        return super()._vassign(run, leftovers)

    def _massign(self, run) -> None:
        work = self._note("massign")
        for session in run.sessions.values():
            for fid, vertices in _by_master(session.partition).items():
                work[fid] += vertices
        super()._massign(run)


class ParME2H(_ParComposite, ME2H):
    """Parallel ME2H on the BSP simulator."""

    tail_bytes = 24.0  # one edge per split unit

    def __init__(
        self,
        cost_models: Dict[str, CostModel],
        batch_size: int = 32,
        clock: Optional[CostClock] = None,
        budget_slack: float = 1.2,
        guard_config: Optional[GuardConfig] = None,
        cluster_spec: Optional[ClusterSpec] = None,
    ) -> None:
        super().__init__(
            cost_models, budget_slack, guard_config=guard_config, cluster_spec=cluster_spec
        )
        self.batch_size = batch_size
        self.clock = clock or CostClock()

    def _tail(self, run, residue) -> None:
        work = self._note(self.tail)
        for fid, (v, _edges), names in residue:
            work[fid].extend([v] * len(names))
        super()._tail(run, residue)


class _TailVMerge(V2H):
    """MV2H's VMerge pass, noting each promotion at its fragment."""

    def _promote(self, state: PassState, v: int, fid: int, missing) -> None:
        self.promoted[fid].append(v)
        super()._promote(state, v, fid, missing)


class ParMV2H(_ParComposite, MV2H):
    """Parallel MV2H on the BSP simulator."""

    tail_bytes = 16.0  # one pull per promotion

    def __init__(
        self,
        cost_models: Dict[str, CostModel],
        batch_size: int = 32,
        clock: Optional[CostClock] = None,
        budget_slack: float = 1.2,
        vmerge_passes: int = 1,
        guard_config: Optional[GuardConfig] = None,
        cluster_spec: Optional[ClusterSpec] = None,
    ) -> None:
        super().__init__(
            cost_models, budget_slack, vmerge_passes, guard_config, cluster_spec
        )
        self.batch_size = batch_size
        self.clock = clock or CostClock()

    def _merger(self, model: CostModel, **options) -> V2H:
        merger = _TailVMerge(model, **options)
        merger.promoted = self._note(self.tail)
        return merger
