"""Parallel refiners ParE2H / ParV2H / ParME2H / ParMV2H (Section 5.3, 6.4).

The parallel refiners execute the same phases as their sequential
counterparts, restructured into BSP supersteps on the runtime simulator:

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

``ParME2H`` / ``ParMV2H`` run the composite logic of ME2H / MV2H (whose
Init/GetDest procedures are fragment-local, Section 6.4) and charge the
cluster from each phase's per-worker unit counts.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.driver import PassState
from repro.core.e2h import RefineStats, SingleOutputRefiner
from repro.core.me2h import ME2H, CompositeStats
from repro.core.mv2h import MV2H
from repro.core.operations import emigrate, split_migrate_edge, vmerge, vmigrate
from repro.core.tracker import TrackerSeed
from repro.core.v2h import merged_price, vcut_promotions
from repro.costmodel.model import CostModel
from repro.integrity.guard import GuardConfig
from repro.partition.composite import CompositePartition
from repro.partition.hybrid import HybridPartition, NodeRole
from repro.runtime.bsp import Cluster
from repro.runtime.clusterspec import ClusterSpec, coerce_cluster_spec
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


class _PhaseMeter:
    """Tracks makespan/superstep deltas per named phase of a cluster."""

    def __init__(self, cluster: Cluster, profile: RefinementProfile) -> None:
        self.cluster = cluster
        self.profile = profile

    def _snapshot(self) -> Tuple[float, int]:
        return self.cluster.profile.makespan, self.cluster.profile.num_supersteps

    def run(self, name: str, body) -> None:
        """Execute ``body`` and record its makespan/superstep deltas."""
        before = self._snapshot()
        body()
        after = self._snapshot()
        self.profile.phase_times[name] = after[0] - before[0]
        self.profile.phase_supersteps[name] = after[1] - before[1]


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
    everyone synchronizes).
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
        self.meter = _PhaseMeter(self.cluster, self.profile)
        return self.cluster

    def setup(self, select: Callable[[], None], state: PassState) -> None:
        def body() -> None:
            select()
            for fid in state.candidates:
                self.cluster.charge(fid, state.partition.fragments[fid].num_vertices)
            _sync_state(self.cluster)

        self.meter.run("setup", body)

    def phase(self, name: str, body, state: PassState) -> None:
        self.meter.run(name, lambda: body(state))

    def result(
        self, partition: HybridPartition
    ) -> Tuple[HybridPartition, RefinementProfile]:
        self.profile.total_time = self.cluster.profile.makespan
        self.profile.wall_seconds = time.perf_counter() - self.wall_start
        return partition, self.profile


class _ParRefiner(SingleOutputRefiner):
    """ParE2H / ParV2H: the shared pass through a :class:`_ClusterExecutor`.

    ``refine`` / ``refine_incremental`` return ``(partition, profile)``
    and publish the pass's :class:`RefineStats` as :attr:`last_stats`
    as well as ``profile.stats``.
    """

    def _executor(self) -> "_ClusterExecutor":
        return _ClusterExecutor(self)

    def _parallel_massign(self, state: PassState) -> None:
        """Batched Eq. 5 master assignment with shared accumulators."""
        vertices, residual = state.massign_scope()
        _parallel_massign_impl(state, self.batch_size, vertices, residual)


class ParE2H(_ParRefiner):
    """Parallel E2H on the BSP simulator."""

    role = NodeRole.ECUT

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
        self.cost_model = cost_model
        self.batch_size = batch_size
        self.clock = clock or CostClock()
        self.enable_emigrate = enable_emigrate
        self.enable_esplit = enable_esplit
        self.enable_massign = enable_massign
        self.budget_slack = budget_slack
        self.guard_config = guard_config
        self.cluster_spec = coerce_cluster_spec(cluster_spec)
        self.last_stats: Optional[RefineStats] = None
        self.last_seed: Optional[TrackerSeed] = None

    def _phase_plan(self):
        return (
            ("emigrate", self.enable_emigrate, self._parallel_emigrate),
            ("esplit", self.enable_esplit, self._parallel_esplit),
            ("massign", self.enable_massign, self._parallel_massign),
        )

    # ------------------------------------------------------------------
    def _parallel_emigrate(self, state: PassState) -> None:
        """Round-robin batched candidate shipping (Section 5.3)."""
        partition, tracker, guard = state.partition, state.tracker, state.guard
        cluster, budget = state.cluster, state.budget
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
        k = len(underloaded)
        step = _Round(cluster)
        while any(queues.values()):
            for src, queue in queues.items():
                batch, queues[src] = queue[: self.batch_size], queue[self.batch_size :]
                for v, edges, attempts in batch:
                    if (
                        not partition.fragments[src].has_vertex(v)
                        or partition.role(v, src) is not NodeRole.ECUT
                    ):
                        continue
                    dst = underloaded[attempts % k]
                    if dst == src:
                        attempts += 1
                        dst = underloaded[attempts % k]
                        if dst == src:
                            leftovers[src].append((v, edges))
                            continue
                    step.send(src, dst, 16.0 + 8.0 * len(edges))
                    step.charge(dst, C1_OPS)
                    price = price_as_ecut(v)
                    if (
                        tracker.projected_load(
                            dst, tracker.comp_cost(dst) + price
                        )
                        <= budget
                    ):
                        emigrate(partition, v, src, dst)
                        state.stats.emigrated += 1
                        if guard is not None:
                            guard.step()
                    elif attempts + 1 < k:
                        queues[src].append((v, edges, attempts + 1))
                    else:
                        leftovers[src].append((v, edges))
            step.barrier()
        for src in candidates:
            candidates[src] = leftovers.get(src, [])

    def _parallel_esplit(self, state: PassState) -> None:
        """Batched greedy edge splitting against shared cost state."""
        partition, guard, stats = state.partition, state.guard, state.stats
        cluster, candidates = state.cluster, state.candidates
        cheapest = state.scorer.cheapest
        pending: Dict[int, List] = {}
        for src, cand_list in candidates.items():
            edges = []
            for v, _snapshot in cand_list:
                fragment = partition.fragments[src]
                if fragment.has_vertex(v):
                    local = sorted(fragment.incident(v))
                    if local:
                        stats.split_vertices += 1
                    edges.extend((v, e) for e in local)
            pending[src] = edges
            candidates[src] = []
        step = _Round(cluster)
        while any(pending.values()):
            for src, edges in pending.items():
                batch, pending[src] = (
                    edges[: self.batch_size],
                    edges[self.batch_size :],
                )
                for v, edge in batch:
                    step.charge(src, C1_OPS)
                    target = cheapest()
                    if target == src:
                        continue
                    if not partition.fragments[src].has_edge(edge):
                        continue
                    step.send(src, target, 24.0)
                    split_migrate_edge(partition, v, edge, src, target)
                    stats.split_edges += 1
                    if guard is not None:
                        guard.step()
            step.barrier()


def _parallel_massign_impl(
    state: PassState,
    batch_size: int,
    vertices=None,
    residual: bool = False,
) -> None:
    partition, tracker, guard = state.partition, state.tracker, state.guard
    cluster, stats = state.cluster, state.stats
    host_scores = state.scorer.host_scores
    # Each worker is responsible for the border vertices it currently
    # masters; comp snapshot is shared, comm accumulators persist.
    # ``vertices`` restricts the pass to the dirty region (DESIGN §15);
    # ``residual`` then starts the communication accumulators from the
    # standing C_g of the untouched masters (see massign()).
    work: Dict[int, List[int]] = {fid: [] for fid in range(partition.num_fragments)}
    for v, hosts in partition.vertex_fragments():
        if len(hosts) > 1 and (vertices is None or v in vertices):
            work[partition.master(v)].append(v)
    for fid in work:
        work[fid].sort()
    comp = tracker.comp_costs()
    comm = [0.0] * partition.num_fragments
    if residual:
        comm = tracker.comm_costs()
        for batch_list in work.values():
            for v in batch_list:
                standing = tracker.comm_contribution(v)
                if standing is not None:
                    comm[standing[0]] -= standing[1]
    caps = tracker.capacities
    bws = tracker.bandwidths
    step = _Round(cluster)
    while any(work.values()):
        for fid in range(partition.num_fragments):
            batch, work[fid] = work[fid][:batch_size], work[fid][batch_size:]
            for v in batch:
                hosts = sorted(partition.placement(v))
                if len(hosts) < 2:
                    continue
                step.charge(fid, (C1_OPS + C2_OPS) * len(hosts))
                current = partition.master(v)
                best_fid, best_score = hosts[0], float("inf")
                best_gain, best_delta = 0.0, 0.0
                for host, (g_here, h_delta) in zip(hosts, host_scores(v, hosts)):
                    s, b = caps[host], bws[host]
                    score = comp[host] / s + comm[host] / b + g_here / b + h_delta / s
                    if score < best_score:
                        best_score, best_fid = score, host
                        best_gain, best_delta = g_here, h_delta
                if current != best_fid:
                    # Scored pre-mutation above: a gain-cache hit with
                    # the identical value.
                    comp[current] -= state.scorer.master_delta(v, current)
                    comp[best_fid] += best_delta
                    step.send(fid, best_fid, 12.0)
                    partition.set_master(v, best_fid)
                    stats.master_moves += 1
                    if guard is not None:
                        guard.step()
                comm[best_fid] += best_gain
        step.barrier()


class ParV2H(_ParRefiner):
    """Parallel V2H on the BSP simulator."""

    role = NodeRole.VCUT

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
        self.cost_model = cost_model
        self.batch_size = batch_size
        self.clock = clock or CostClock()
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
            ("vmigrate", self.enable_vmigrate, self._parallel_vmigrate),
            ("vmerge", self.enable_vmerge, self._parallel_vmerge),
            ("massign", self.enable_massign, self._parallel_massign),
        )

    # ------------------------------------------------------------------
    def _parallel_vmigrate(self, state: PassState) -> None:
        partition, tracker, guard = state.partition, state.tracker, state.guard
        cluster, budget, underloaded = state.cluster, state.budget, state.underloaded
        scorer_merged_price = state.scorer.merged_price
        queues: Dict[int, List] = {
            src: [(v, edges, 0) for v, edges in cand_list]
            for src, cand_list in state.candidates.items()
        }
        step = _Round(cluster)
        while any(queues.values()):
            for src, queue in queues.items():
                batch, queues[src] = queue[: self.batch_size], queue[self.batch_size :]
                for v, edges, attempts in batch:
                    if (
                        not partition.fragments[src].has_vertex(v)
                        or partition.role(v, src) is not NodeRole.VCUT
                    ):
                        continue
                    # Destinations must be underloaded AND co-host v.
                    hosts = [
                        fid
                        for fid in underloaded
                        if fid != src and partition.fragments[fid].has_vertex(v)
                    ]
                    if attempts >= len(hosts):
                        continue
                    dst = hosts[attempts]
                    step.send(src, dst, 16.0 + 8.0 * len(edges))
                    step.charge(dst, C1_OPS)
                    new_price = scorer_merged_price(
                        v, src, dst, lambda: merged_price(tracker, v, src, dst)
                    )
                    old_price = tracker.copy_comp_cost(v, dst)
                    if (
                        tracker.projected_load(
                            dst, tracker.comp_cost(dst) - old_price + new_price
                        )
                        <= budget
                    ):
                        vmigrate(partition, v, src, dst)
                        state.stats.vmigrated += 1
                        if guard is not None:
                            guard.step()
                    else:
                        queues[src].append((v, edges, attempts + 1))
            step.barrier()

    def _parallel_vmerge(self, state: PassState) -> None:
        partition, tracker, guard = state.partition, state.tracker, state.guard
        cluster, budget = state.cluster, state.budget
        graph = partition.graph
        # A dirty scope narrows the scan to the touched fragments'
        # frontier v-cuts (DESIGN §15); the full pass scans everything.
        fragments = None if state.scope is None else state.scope.touched
        price_as_ecut = state.scorer.price_as_ecut
        step = _Round(cluster)
        for _pass in range(self.vmerge_passes):
            merged_any = False
            # Each underloaded worker scans its own v-cut nodes in batches.
            work: Dict[int, List[int]] = {}
            for fid in range(partition.num_fragments):
                if fragments is not None and fid not in fragments:
                    continue
                if tracker.load(fid) > budget:
                    continue
                work[fid] = vcut_promotions(state, fid)
            while any(work.values()):
                for fid in list(work):
                    batch, work[fid] = (
                        work[fid][: self.batch_size],
                        work[fid][self.batch_size :],
                    )
                    fragment = partition.fragments[fid]
                    for v in batch:
                        # Earlier merges may have pruned or promoted this
                        # copy; only still-present v-cut copies qualify.
                        if (
                            not fragment.has_vertex(v)
                            or partition.role(v, fid) is not NodeRole.VCUT
                        ):
                            continue
                        missing = [
                            edge
                            for edge in graph.incident_edges(v)
                            if not fragment.has_edge(edge)
                        ]
                        step.charge(fid, C1_OPS)
                        new_price = price_as_ecut(v)
                        old_price = tracker.copy_comp_cost(v, fid)
                        if (
                            tracker.projected_load(
                                fid,
                                tracker.comp_cost(fid) - old_price + new_price,
                            )
                            > budget
                        ):
                            continue
                        for _edge in missing:
                            step.send(partition.master(v), fid, 16.0)
                        vmerge(partition, v, fid, missing)
                        state.stats.vmerged += 1
                        merged_any = True
                        if guard is not None:
                            guard.step()
                step.barrier()
            if not merged_any:
                break


class _CompositeParallelMixin:
    """Shared timing synthesis for the composite parallel refiners.

    ME2H/MV2H's extra procedures (Init, GetDest) are fragment-local
    (Section 6.4), so the parallel variants run the composite logic and
    charge the cluster per phase from its per-worker unit counts.
    """

    batch_size: int
    clock: CostClock
    cluster_spec: Optional[ClusterSpec]

    def refine(
        self, partition: HybridPartition
    ) -> Tuple[CompositePartition, RefinementProfile]:
        """Refine; returns ``(composite partition, timing profile)``."""
        wall_start = time.perf_counter()
        composite = self.inner.refine(partition)
        profile = RefinementProfile()
        self._charge_phases(composite, self.inner.last_stats, profile)
        profile.wall_seconds = time.perf_counter() - wall_start
        return composite, profile

    def _charge_phases(
        self,
        composite: CompositePartition,
        stats: CompositeStats,
        profile: RefinementProfile,
    ) -> None:
        cluster = Cluster(
            next(iter(composite.partitions.values())),
            clock=self.clock,
            spec=self.cluster_spec,
        )
        meter = _PhaseMeter(cluster, profile)
        n = composite.num_fragments
        k = composite.num_algorithms

        workers = cluster.workers
        ring = (workers + 1) % n

        def simulate(total_units: int, ops_per_unit: float, nbytes: float) -> None:
            per_worker = (total_units + n - 1) // n
            remaining = per_worker
            while remaining > 0:
                batch = min(self.batch_size, remaining)
                cluster.charge_bulk(workers, np.full(n, ops_per_unit * batch))
                cluster.send_batch(workers, ring, nbytes * batch)
                _sync_state(cluster)
                remaining -= batch

        meter.run(
            "init",
            lambda: simulate(stats.core_units + stats.vassign_units, C1_OPS * k, 8.0),
        )
        meter.run("vassign", lambda: simulate(stats.vassign_units, C1_OPS * k, 24.0))
        meter.run("eassign", lambda: simulate(stats.eassign_units, C1_OPS, 24.0))
        borders = sum(
            1
            for part in composite.partitions.values()
            for _v, hosts in part.vertex_fragments()
            if len(hosts) > 1
        )
        meter.run("massign", lambda: simulate(borders, C1_OPS + C2_OPS, 12.0))
        profile.total_time = cluster.profile.makespan
        profile.composite_stats = stats


class ParME2H(_CompositeParallelMixin):
    """Parallel composite edge-cut refiner."""

    def __init__(
        self,
        cost_models: Dict[str, CostModel],
        batch_size: int = 32,
        clock: Optional[CostClock] = None,
        budget_slack: float = 1.2,
        guard_config: Optional[GuardConfig] = None,
        cluster_spec: Optional[ClusterSpec] = None,
    ) -> None:
        self.cluster_spec = coerce_cluster_spec(cluster_spec)
        self.inner = ME2H(
            cost_models,
            budget_slack=budget_slack,
            guard_config=guard_config,
            cluster_spec=self.cluster_spec,
        )
        self.batch_size = batch_size
        self.clock = clock or CostClock()


class ParMV2H(_CompositeParallelMixin):
    """Parallel composite vertex-cut refiner."""

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
        self.cluster_spec = coerce_cluster_spec(cluster_spec)
        self.inner = MV2H(
            cost_models,
            budget_slack=budget_slack,
            vmerge_passes=vmerge_passes,
            guard_config=guard_config,
            cluster_spec=self.cluster_spec,
        )
        self.batch_size = batch_size
        self.clock = clock or CostClock()
