"""The BSP cluster simulator.

One :class:`Cluster` instance simulates the shared-nothing worker pool of
Section 5.3: fragment ``i`` of the partition lives on worker ``i``.
Algorithms interleave three calls:

* :meth:`Cluster.charge` — account abstract computation operations to a
  worker (optionally attributed to a vertex copy for training data);
* :meth:`Cluster.send` — post a message to another worker, delivered at
  the next superstep (optionally attributed to a master vertex's
  synchronization traffic);
* :meth:`Cluster.deliver` — end the superstep: the clock adds
  ``max_f comp + max_f bytes + latency`` to the makespan and the posted
  messages become the next superstep's input.

Every barrier is priced by one formula (:meth:`Cluster._superstep_time`)
over the cluster's :class:`~repro.runtime.clusterspec.ClusterSpec` — the
all-ones spec when none is given, whose divisions by 1.0 are exact:
lost workers' loads fold onto their heirs, each worker's ops and bytes
are scaled by its straggler factor, ops are divided by its speed (and,
where some capacity is not 1.0, each link's bytes by its bandwidth), and
the slowest worker sets the pace.

Messages to the local worker are delivered but cost zero bytes, matching
a shared-memory shortcut on a real deployment.  :meth:`Cluster.charge_bulk`
and :meth:`Cluster.send_batch` are the array forms; either may name one
worker per entry, so a whole superstep is one call per kind of message
(``send_batch`` also enqueues columnar payloads).  What they account lands
in a per-worker float64 ledger that ``deliver`` reads; ``finish`` folds
the run totals into the :class:`RunProfile` and hands it the dense
per-copy and per-master accumulators, which it folds on first read.

Fault tolerance (optional, zero-cost when off)
----------------------------------------------
A cluster built with a :class:`~repro.runtime.faults.FaultPlan` degrades
its substrate as the plan declares: stragglers stretch a worker's
superstep time, and a crash triggers *rollback recovery* — the cluster
restores the last checkpoint taken by its
:class:`~repro.runtime.checkpoint.CheckpointManager` (or rewinds to the
initial state if none) and replays the lost supersteps, charging restore
bytes, replayed superstep time, and the re-execution of the crashed
superstep to the makespan.  Messages always arrive exactly once, and
recovery is exact, so algorithm *results* are identical to a fault-free
run; only the profile changes.  With no fault
plan every straggler factor is 1.0 and no recovery is charged, so
makespans equal a fault-free run's bit for bit.

Permanent loss and degraded-mode execution
------------------------------------------
A :class:`~repro.runtime.faults.PermanentLossFault` removes a worker for
good.  The cluster *fails over* instead of rolling back: it restores the
dead worker's shard from the last checkpoint, promotes surviving mirror
copies to masters, re-places vertices whose only copy died onto the
survivors, and rebuilds the routing tables — every byte and second of
which is charged through :meth:`_fail_over`.  From then on the run is in
*degraded mode*: the dead worker's per-superstep load is folded onto its
heirs (proportionally to the promoted masters and re-placed vertices
each one absorbed) and the barrier waits only for surviving workers.
The failover decision is a pure simulation over routing-table arrays
(:mod:`repro.runtime.failover`); the partition object is never mutated,
so algorithm results stay bit-identical to a clean run.
"""

from __future__ import annotations

import time
from operator import mul, truediv
from typing import Any, Callable, Dict, List, Optional, Sequence, Union

import numpy as np

from repro.partition.hybrid import HybridPartition
from repro.runtime.checkpoint import CheckpointManager
from repro.runtime.clusterspec import ClusterSpec
from repro.runtime.costclock import CostClock
from repro.runtime.failover import FailoverState
from repro.runtime.faults import CrashFault, FaultPlan, PermanentLossFault
from repro.runtime.instrumentation import (
    FailureEvent,
    RunProfile,
    SuperstepRecord,
    fold,
)
from repro.runtime.parallel import ShmRunner, resolve_backend
from repro.runtime.plan import gather_segments, plan_for


class Cluster:
    """Simulated BSP worker pool over a hybrid partition.

    Array compute over the plan's copy space goes through :meth:`map`,
    in-process or in shm worker processes (an algorithm cannot tell
    which); :meth:`close` releases what the backend holds and must be
    reached on every exit path.
    """

    def __init__(
        self,
        partition: HybridPartition,
        clock: Optional[CostClock] = None,
        faults: Optional[FaultPlan] = None,
        checkpoint_interval: int = 0,
        snapshot: Optional[Callable[[], Any]] = None,
        spec: Optional[ClusterSpec] = None,
        backend: Optional[str] = None,
        shm_workers: Optional[int] = None,
    ) -> None:
        if partition.num_fragments <= 0:
            raise ValueError(
                "cluster needs at least one fragment/worker, got "
                f"num_fragments={partition.num_fragments}"
            )
        self.partition = partition
        self.num_workers = partition.num_fragments
        self.workers = np.arange(self.num_workers, dtype=np.int64)
        self.clock = clock or CostClock()
        # Execution backend: where :meth:`map` calls a kernel — here
        # ("simulated") or in worker processes over shared memory ("shm").
        # Either way the CostClock below is the sole metrics source, so
        # profiles and makespans are backend-independent bit for bit.
        self.backend, workers = resolve_backend(backend, shm_workers)
        self._shm_runner = ShmRunner(workers) if self.backend == "shm" else None
        self._wall_last = time.perf_counter()
        # Capacities: a homogeneous cluster is the all-ones spec.  Only a
        # spec with some capacity other than 1.0 keeps the pending
        # superstep's raw bytes per (src, dst) link, for the barrier to
        # divide by each link's bandwidth.
        spec = spec or ClusterSpec.uniform(self.num_workers)
        spec.validate_for(self.num_workers)
        self._speeds = spec.speeds
        self._min_speed = spec.min_speed
        self._min_bandwidth = spec.min_bandwidth
        self._linkbw = None if spec.is_uniform else spec.link_bandwidths
        self._step_link_bytes = (
            None if self._linkbw is None else np.zeros(self._linkbw.shape)
        )
        self.profile = RunProfile(num_workers=self.num_workers)
        # The ledger: this superstep's and the run's per-worker ops and
        # bytes, one float64 slot per worker, and the run's per-copy op
        # counts and per-master byte counts, one dense slot each (plus a
        # trash slot for unattributed bytes).  finish() folds the run
        # totals into the profile and hands it the dense accumulators.
        self._step_ops = np.zeros(self.num_workers)
        self._step_bytes = np.zeros(self.num_workers)
        self._ops_total = np.zeros(self.num_workers)
        self._bytes_total = np.zeros(self.num_workers)
        self._outbox: Dict[int, List[Any]] = {f: [] for f in range(self.num_workers)}
        self._step_index = 0
        self._copy_ops_acc: Optional[np.ndarray] = None
        self._master_bytes_acc: Optional[np.ndarray] = None

        # The plan's crashes and losses by the superstep they end; each
        # fires once because the superstep index only grows.
        self.faults: Optional[FaultPlan] = None
        self._stragglers = False
        self._ones = (1.0,) * self.num_workers
        self._crashes_at: Dict[int, List[CrashFault]] = {}
        self._losses_at: Dict[int, List[PermanentLossFault]] = {}
        if faults is not None:
            faults.validate_for(self.num_workers)
            if not faults.is_empty:
                self.faults = faults
            self._stragglers = bool(faults.stragglers)
            for crash in faults.crashes:
                self._crashes_at.setdefault(crash.superstep, []).append(crash)
            for loss in faults.losses:
                self._losses_at.setdefault(loss.superstep, []).append(loss)
        # Degraded-mode state: heir shares of each permanently lost
        # worker's future load, and the routing-table view failover
        # decisions are computed against (built lazily on first loss).
        self._lost: Dict[int, Dict[int, float]] = {}
        self._failover_state: Optional[FailoverState] = None
        self.checkpoints: Optional[CheckpointManager] = None
        if checkpoint_interval:
            self.checkpoints = CheckpointManager(checkpoint_interval, snapshot)

    def map(self, kernel, tables, state, fids, args=()):
        """Run ``kernel`` over the plan's copy space; its output(s) per copy.

        ``tables`` is ``kernel.tables(plan)``, ``state`` a tuple of
        copy-space arrays, ``args`` the kernel's scalars.  ``fids`` are the
        fragments with work: every other fragment's rows must be idle —
        their output is ``kernel.fill`` — so a backend may skip them.  The
        backend is only *where* ``kernel.compute`` is called: here, once
        over every copy, or in worker processes on each fragment's rows of
        the same tables.
        """
        if self._shm_runner is not None:
            return self._shm_runner.map(kernel, tables, state, fids, args)
        return kernel.compute(tables, *state, *args)

    def close(self) -> None:
        """Detach the shm workers and unlink the run's arena (idempotent)."""
        if self._shm_runner is not None:
            self._shm_runner.close()

    def set_snapshot(self, snapshot: Callable[[], Any]) -> None:
        """Register the algorithm's state-snapshot hook for checkpointing.

        The callable must return a picklable view of the per-vertex state
        a recovering worker would reload.  It is only invoked when
        checkpointing is enabled, so registering it is free on the
        default path.
        """
        if self.checkpoints is not None:
            self.checkpoints.set_snapshot_hook(snapshot)

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def _check_fid(self, fid: int, role: str) -> None:
        if not 0 <= fid < self.num_workers:
            raise ValueError(
                f"{role} worker id {fid} out of range for a "
                f"{self.num_workers}-worker cluster (valid: 0.."
                f"{self.num_workers - 1})"
            )

    def _check_fids(self, fids: np.ndarray, role: str) -> None:
        """:meth:`_check_fid` over an int64 array, in one pass when all are
        valid (a negative id, read as unsigned, is out of range too)."""
        if fids.size and np.maximum.reduce(fids.view(np.uint64)) >= self.num_workers:
            self._check_fid(int(fids[(fids < 0) | (fids >= self.num_workers)][0]), role)

    def _workers_of(self, fid, shape: tuple, role: str) -> np.ndarray:
        """``fid`` — one worker id, or an array aligned with ``shape`` —
        validated and as an int64 array of that shape."""
        if np.ndim(fid) == 0:
            self._check_fid(int(fid), role)
            return np.full(shape, int(fid), dtype=np.int64)
        fids = np.asarray(fid, dtype=np.int64)
        if fids.shape != shape:
            raise ValueError(
                f"{role} workers of shape {fids.shape} do not align with "
                f"{shape[0] if shape else 0} entries"
            )
        self._check_fids(fids, role)
        return fids

    # ------------------------------------------------------------------
    # Charging
    # ------------------------------------------------------------------
    def charge(self, fid: int, ops: float, vertex: Optional[int] = None) -> None:
        """Account ``ops`` computation operations to worker ``fid``.

        When ``vertex`` is given the operations are also attributed to the
        copy ``(fid, vertex)`` for cost-model training.
        """
        self._check_fid(fid, "charged")
        if ops <= 0:
            return
        self._step_ops[fid] += ops
        self._ops_total[fid] += ops
        if vertex is not None:
            key = (fid, vertex)
            self.profile.comp_ops_by_copy[key] = (
                self.profile.comp_ops_by_copy.get(key, 0.0) + ops
            )

    def charge_bulk(
        self,
        fid: Union[int, np.ndarray],
        ops: np.ndarray,
        vertices: Optional[np.ndarray] = None,
    ) -> None:
        """Account an array of op counts in one shot.

        ``fid`` is the charged worker, or an array aligned with ``ops``
        naming each entry's worker.  Equivalent to ``charge(fid[i],
        ops[i], vertex=vertices[i])`` for every ``i``: totals are exact
        because every charge in the runtime is integer-valued (dyadic), so
        a ``bincount`` equals the scalar accumulation bit for bit.
        Per-copy attribution lands in a dense accumulator that
        :meth:`finish` hands to the profile.  A zero charge adds nothing
        anywhere, so only negative ones need filtering out.
        """
        ops = np.asarray(ops, dtype=np.float64)
        fids = self._workers_of(fid, ops.shape, "charged")
        if vertices is not None:
            vertices = np.asarray(vertices, dtype=np.int64)
        if ops.size and np.minimum.reduce(ops) < 0:
            kept = ops > 0
            ops, fids = ops[kept], fids[kept]
            vertices = None if vertices is None else vertices[kept]
        per_worker = np.bincount(fids, ops, self.num_workers)
        self._step_ops += per_worker
        self._ops_total += per_worker
        if vertices is not None:
            n = self.partition.graph.num_vertices
            if self._copy_ops_acc is None:
                self._copy_ops_acc = np.zeros(self.num_workers * n)
            np.add.at(self._copy_ops_acc, fids * n + vertices, ops)

    def send_batch(
        self,
        src: Union[int, np.ndarray],
        dsts: np.ndarray,
        nbytes: Union[float, np.ndarray],
        master_vertices: Optional[np.ndarray] = None,
        payloads: Optional[Sequence[Any]] = None,
    ) -> None:
        """Post a batch of messages in array order.

        ``src`` is the sending worker, or an array aligned with ``dsts``
        naming each message's sender, so one call can carry a whole
        superstep of every fragment.  Accounts like ``send(src[i],
        dsts[i], ..., nbytes[i], master_vertex=master_vertices[i])`` for
        every ``i``; ``master_vertices`` uses ``-1`` as the "no
        attribution" sentinel.  Without ``payloads`` the call is pure
        accounting.  With them the messages are also enqueued:
        ``payloads`` is columnar, ``(tag, col_0, col_1, ...)``, each column
        aligned with ``dsts`` or a CSR pair ``(indptr, flat)`` with one row
        per message, and each destination gets one *block* ``(tag,
        senders, col_0[sel], ...)`` — the per-message sender column, CSR
        columns sliced to its rows — holding its messages in array order
        (a zero ``nbytes`` enqueues without charging).  Every argument is
        checked against ``dsts`` before anything is enqueued or charged.
        Only remote nonzero-byte messages are charged, to both ends' byte
        totals, to their link (when the cluster keeps per-link bytes) and
        to their master vertex, each exactly as the per-message
        :meth:`send` calls would have charged them.
        """
        dsts = np.asarray(dsts, dtype=np.int64)
        srcs = self._workers_of(src, dsts.shape, "source")
        self._check_fids(dsts, "destination")
        wire = np.asarray(nbytes, np.float64)
        mv = None if master_vertices is None else np.asarray(master_vertices, np.int64)
        for what, arr in (("nbytes", wire if wire.ndim else None), ("master_vertices", mv)):
            if arr is not None and arr.shape[:1] != dsts.shape:
                raise ValueError(
                    f"{what} of shape {arr.shape} does not align with "
                    f"{dsts.size} destinations"
                )
        if payloads is not None:
            tag, *cols = payloads
            csr = [isinstance(col, tuple) for col in cols]
            cols = [tuple(map(np.asarray, c)) if r else np.asarray(c) for c, r in zip(cols, csr)]
            rows = [(c[0].size - 1,) if r else c.shape[:1] for c, r in zip(cols, csr)]
            if any(shape != dsts.shape for shape in rows):
                raise ValueError(
                    f"payload columns of shapes {rows} do not align with "
                    f"{dsts.size} destinations"
                )
            order = np.argsort(dsts, kind="stable")
            cuts = np.flatnonzero(np.diff(dsts[order])) + 1
            for sel in np.split(order, cuts) if dsts.size else ():
                block = [tag, srcs[sel]]
                for col, ragged in zip(cols, csr):
                    if ragged:
                        idx, lens = gather_segments(col[0], sel)
                        block.append((np.concatenate(([0], np.cumsum(lens))), col[1][idx]))
                    else:
                        block.append(col[sel])
                self._outbox[int(dsts[sel[0]])].append(tuple(block))
        remote = dsts != srcs
        if wire.ndim:
            remote &= wire > 0
        elif wire <= 0:
            return
        remote = remote.nonzero()[0]
        if remote.size < dsts.size:
            if remote.size == 0:
                return
            srcs, dsts = srcs[remote], dsts[remote]
            wire = wire[remote] if wire.ndim else wire
            mv = None if mv is None else mv[remote]
        # Both ends pay each message's bytes.  A scalar ``nbytes`` stays
        # one: a count times a dyadic size is the per-message sum exactly.
        weights = wire if wire.ndim else None
        moved = np.bincount(srcs, weights, self.num_workers)
        moved = moved + np.bincount(dsts, weights, self.num_workers)
        if weights is None:
            moved = moved * wire
        self._step_bytes += moved
        self._bytes_total += moved
        if self._step_link_bytes is not None:
            # Raw per-link totals; bandwidth division happens once at the
            # barrier so batched and scalar sends accumulate identically
            # (byte counts are dyadic, the divided values need not be).
            np.add.at(self._step_link_bytes, (srcs, dsts), wire)
        if mv is not None:
            if self._master_bytes_acc is None:
                # one slot per vertex and, last, the trash slot ``-1`` hits
                self._master_bytes_acc = np.zeros(self.partition.graph.num_vertices + 1)
            np.add.at(self._master_bytes_acc, mv, wire)

    def _fold_ledger(self) -> None:
        """Fold the run totals into the profile's dicts and hand it the
        charged entries of the dense accumulators, folded on first read —
        each on top of whatever scalar charges already attributed."""
        for into, totals in (
            (self.profile.comp_ops_by_worker, self._ops_total),
            (self.profile.bytes_by_worker, self._bytes_total),
        ):
            charged = np.flatnonzero(totals)
            fold(into, charged.tolist(), totals[charged])
            totals.fill(0.0)
        if self._copy_ops_acc is not None:
            acc, self._copy_ops_acc = self._copy_ops_acc, None
            charged = np.flatnonzero(acc)
            n = self.partition.graph.num_vertices
            self.profile.defer("comp_ops_by_copy", charged, acc[charged], n)
        if self._master_bytes_acc is not None:
            acc, self._master_bytes_acc = self._master_bytes_acc[:-1], None
            charged = np.flatnonzero(acc)
            self.profile.defer("comm_bytes_by_master", charged, acc[charged])

    def send(
        self,
        src: int,
        dst: int,
        payload: Any,
        nbytes: float,
        master_vertex: Optional[int] = None,
    ) -> None:
        """Post ``payload`` from worker ``src`` to worker ``dst``.

        ``nbytes`` is the simulated wire size; local (``src == dst``)
        messages are free.  ``master_vertex`` attributes the bytes to that
        vertex's master-synchronization traffic (the quantity g_A models).
        """
        self._check_fid(src, "source")
        self._check_fid(dst, "destination")
        self._outbox[dst].append(payload)
        if src != dst and nbytes > 0:
            for fid in (src, dst):
                self._step_bytes[fid] += nbytes
                self._bytes_total[fid] += nbytes
            if self._step_link_bytes is not None:
                self._step_link_bytes[src, dst] += nbytes
            if master_vertex is not None:
                self.profile.comm_bytes_by_master[master_vertex] = (
                    self.profile.comm_bytes_by_master.get(master_vertex, 0.0)
                    + nbytes
                )

    # ------------------------------------------------------------------
    # Superstep barrier
    # ------------------------------------------------------------------
    def _superstep_time(self, step_ops: List[float], step_bytes: List[float]) -> float:
        """Clock charge for the pending superstep, from its per-worker ops
        and bytes: the slowest worker sets the pace.

        On a cluster that keeps per-link bytes, each link's bytes are first
        divided by its bandwidth and summed onto both ends.  A permanently
        lost worker's ops and bytes are folded onto its heirs, each taking
        its recorded share (the partition is never mutated, so algorithms
        keep charging lost fids; the heirs execute that work), and the
        lost worker's own entry then counts as idle.  Every worker's ops
        and bytes are scaled by its straggler factor and its ops divided
        by its speed before the maxima.  At the all-ones spec with no
        faults each factor and divisor is 1.0, so the charge is
        ``max(ops)`` and ``max(bytes)`` exactly.
        """
        if self._linkbw is not None:
            transfers = self._step_link_bytes / self._linkbw
            step_bytes = (transfers.sum(axis=1) + transfers.sum(axis=0)).tolist()
        if self._lost:
            step_ops, step_bytes = list(step_ops), list(step_bytes)
            for dead in sorted(self._lost):
                for heir, share in sorted(self._lost[dead].items()):
                    step_ops[heir] += step_ops[dead] * share
                    step_bytes[heir] += step_bytes[dead] * share
            for dead in self._lost:
                step_ops[dead] = step_bytes[dead] = 0.0
        factors = self._ones
        if self._stragglers:
            step = self._step_index
            factors = [
                self.faults.straggler_factor(f, step) for f in range(self.num_workers)
            ]
        return self.clock.superstep_time(
            max(map(truediv, map(mul, step_ops, factors), self._speeds)),
            max(map(mul, step_bytes, factors)),
        )

    def _byte_time(self, nbytes: float) -> float:
        """Clock charge for shipping ``nbytes`` outside a superstep.

        Checkpoint, restore, and re-placement traffic is conservatively
        priced over the cluster's slowest link.
        """
        return nbytes / self._min_bandwidth * self.clock.byte_cost

    def _op_time(self, ops: float) -> float:
        """Clock charge for ``ops`` outside a superstep (slowest worker)."""
        return ops / self._min_speed * self.clock.op_cost

    def _recover(self, crash, record: SuperstepRecord) -> None:
        """Roll back to the last checkpoint and replay lost supersteps.

        ``record`` is the superstep the crash interrupted; its work is
        redone from scratch after the rollback, so its own time counts
        once more on top of the replayed history.
        """
        checkpoint = self.checkpoints.last if self.checkpoints is not None else None
        if checkpoint is not None:
            restore_time = self._byte_time(checkpoint.nbytes)
            resume_from = checkpoint.superstep
            # Exercise the snapshot round-trip: a corrupt blob should fail
            # loudly here, not at a hypothetical real recovery.
            checkpoint.restore()
        else:
            restore_time = 0.0  # rewind to the (free) initial state
            resume_from = 0
        replayed = [
            past.time
            for past in self.profile.supersteps
            if past.index >= resume_from
        ]
        recovery_time = restore_time + sum(replayed) + record.time
        event = FailureEvent(
            kind="crash",
            worker=crash.worker,
            superstep=record.index,
            recovery_time=recovery_time,
            replayed_supersteps=len(replayed) + 1,
        )
        record.failures.append(event)
        record.recovery_time += recovery_time
        record.time += recovery_time
        self.profile.failures.append(event)
        self.profile.recovery_time += recovery_time

    def _fail_over(self, loss, record: SuperstepRecord) -> None:
        """Promote, re-place, and continue on the surviving workers.

        Charges for one permanent loss, in order: restoring the dead
        worker's checkpoint shard onto survivors, replaying the
        supersteps since (plus redoing the interrupted one), promoting
        mirrors (one pass over the vertex set plus the promotions),
        shipping re-placed sole-copy vertices (state + incident edges),
        and rebuilding the routing tables (one pass over every placement
        entry plus the master vector).
        """
        dead = loss.worker
        survivors = [
            f
            for f in range(self.num_workers)
            if f != dead and f not in self._lost
        ]
        if not survivors:
            raise RuntimeError(
                f"worker {dead} lost at superstep {record.index} was the "
                "last survivor; nothing is left to fail over onto"
            )
        checkpoint = self.checkpoints.last if self.checkpoints is not None else None
        if checkpoint is not None:
            restore_time = self._byte_time(checkpoint.shard_nbytes(dead))
            resume_from = checkpoint.superstep
            checkpoint.restore()
        else:
            restore_time = 0.0  # rewind to the (free) initial state
            resume_from = 0
        replayed = [
            past.time
            for past in self.profile.supersteps
            if past.index >= resume_from
        ]
        if self._failover_state is None:
            self._failover_state = FailoverState(plan_for(self.partition))
        decision = self._failover_state.fail(dead, survivors)
        promotion_time = self._op_time(
            self.partition.graph.num_vertices + decision.promoted_count
        )
        replacement_time = self._byte_time(decision.replacement_bytes)
        rebuild_time = self._op_time(decision.rebuild_entries)
        failover_time = (
            restore_time
            + sum(replayed)
            + record.time
            + promotion_time
            + replacement_time
            + rebuild_time
        )
        # Re-placement traffic lands on the destination workers' totals
        # (not the step maxima: failover_time already covers the barrier).
        for fid in sorted(decision.bytes_by_dest):
            self._bytes_total[fid] += decision.bytes_by_dest[fid]
        event = FailureEvent(
            kind="loss",
            worker=dead,
            superstep=record.index,
            recovery_time=failover_time,
            replayed_supersteps=len(replayed) + 1,
            promoted_masters=decision.promoted_count,
            replaced_vertices=decision.replaced_count,
        )
        record.failures.append(event)
        record.failover_time += failover_time
        record.time += failover_time
        self.profile.failures.append(event)
        self.profile.losses += 1
        self.profile.promoted_masters += decision.promoted_count
        self.profile.replaced_vertices += decision.replaced_count
        self.profile.failover_time += failover_time
        # Fold this loss into the degraded-mode shares.  Earlier losses
        # whose heirs included the newly dead worker redistribute that
        # slice through its own heirs.
        shares = dict(decision.heir_shares)
        for prior_shares in self._lost.values():
            if dead in prior_shares:
                moved = prior_shares.pop(dead)
                for heir in sorted(shares):
                    prior_shares[heir] = (
                        prior_shares.get(heir, 0.0) + moved * shares[heir]
                    )
        self._lost[dead] = shares

    def deliver(self) -> Dict[int, List[Any]]:
        """End the superstep; return per-worker inboxes for the next one.

        With faults enabled this is also where protection and recovery
        are charged: a due checkpoint adds its serialized bytes, a crash
        the plan schedules for this superstep triggers rollback replay
        (see :meth:`_recover`) and a loss triggers failover (see
        :meth:`_fail_over`).
        """
        wall_now = time.perf_counter()
        step_ops = self._step_ops.tolist()
        step_bytes = self._step_bytes.tolist()
        record = SuperstepRecord(
            index=self._step_index,
            ops_by_worker=dict(enumerate(step_ops)),
            bytes_by_worker=dict(enumerate(step_bytes)),
            time=self._superstep_time(step_ops, step_bytes),
            wall_time_s=wall_now - self._wall_last,
        )
        self._wall_last = wall_now
        self.profile.wall_time_s += record.wall_time_s
        for crash in self._crashes_at.get(self._step_index, ()):
            self._recover(crash, record)
        for loss in self._losses_at.get(self._step_index, ()):
            self._fail_over(loss, record)
        if self.checkpoints is not None and self.checkpoints.due(self._step_index + 1):
            checkpoint = self.checkpoints.take(self._step_index + 1)
            record.checkpoint_bytes += checkpoint.nbytes
            record.time += self._byte_time(checkpoint.nbytes)
            self.profile.checkpoint_bytes += checkpoint.nbytes
        self.profile.supersteps.append(record)
        self.profile.makespan += record.time
        inboxes = self._outbox
        self._outbox = {f: [] for f in range(self.num_workers)}
        self._step_ops.fill(0.0)
        self._step_bytes.fill(0.0)
        if self._step_link_bytes is not None:
            self._step_link_bytes.fill(0.0)
        self._step_index += 1
        return inboxes

    def finish(self) -> RunProfile:
        """Flush a trailing superstep if any work is pending, hand the
        ledger to the profile (:meth:`_fold_ledger`) and return it."""
        pending = (
            self._step_ops.any()
            or self._step_bytes.any()
            or any(self._outbox.values())
        )
        if pending:
            self.deliver()
        self._fold_ledger()
        self.close()
        return self.profile
