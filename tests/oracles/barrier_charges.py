"""``Cluster``'s four barrier charges, frozen.

Verbatim bodies of ``repro.runtime.bsp.Cluster._superstep_time``,
``_hetero_superstep_time``, ``_degraded_superstep_time``, ``_byte_time``
and ``_op_time`` (with ``_link_bandwidths`` and
``repro.runtime.clusterspec.effective_spec``) as they stood when the
cluster priced a barrier four ways — plain, straggler, heterogeneous and
degraded — and collapsed a uniform spec to ``None``.  The one formula
that replaced them must charge the same float, bit for bit
(``tests/runtime/test_barrier_differential.py``).
"""

from __future__ import annotations

from operator import mul
from typing import Dict, List, Optional

import numpy as np

from repro.runtime.clusterspec import ClusterSpec
from repro.runtime.costclock import CostClock
from repro.runtime.faults import FaultPlan


def effective_spec(spec: Optional[ClusterSpec]) -> Optional[ClusterSpec]:
    """Collapse the uniform spec to None.

    Consumers branch on ``spec is None`` to pick the legacy bit-exact
    arithmetic; a uniform spec must behave identically to no spec, so it
    *is* no spec past this point.
    """
    if spec is None or spec.is_uniform:
        return None
    return spec


class FrozenBarrier:
    """The barrier state the frozen charges read, set up as ``Cluster``
    set it up: ``link_bytes`` is the pending superstep's raw bytes per
    (src, dst) link, ``lost`` the heir shares of each lost worker."""

    def __init__(
        self,
        num_workers: int,
        clock: CostClock,
        spec: Optional[ClusterSpec],
        faults: Optional[FaultPlan],
        lost: Dict[int, Dict[int, float]],
        step_index: int,
        link_bytes: np.ndarray,
    ) -> None:
        self.num_workers = num_workers
        self.clock = clock
        self.faults = faults if faults is not None and not faults.is_empty else None
        self._lost = lost
        self._step_index = step_index
        self._hetero_spec = effective_spec(spec)
        self._hetero = self._hetero_spec is not None
        self._linkbw = self._link_bandwidths() if self._hetero else None
        self._step_link_bytes = link_bytes if self._hetero else None

    def _link_bandwidths(self) -> np.ndarray:
        """Effective bandwidth of every (src, dst) link of the hetero spec."""
        bws = np.asarray(self._hetero_spec.bandwidths, dtype=np.float64)
        linkbw = np.minimum.outer(bws, bws)
        for lsrc, ldst, lbw in self._hetero_spec.links:
            linkbw[lsrc, ldst] = lbw
        np.fill_diagonal(linkbw, 1.0)  # local delivery is free anyway
        return linkbw

    def _superstep_time(self, step_ops: List[float], step_bytes: List[float]) -> float:
        """Clock charge for the pending superstep (straggler-aware), from
        its per-worker ops and bytes."""
        if self._hetero:
            return self._hetero_superstep_time(step_ops)
        if self._lost:
            return self._degraded_superstep_time(step_ops, step_bytes)
        if self.faults is None:
            return self.clock.superstep_time(max(step_ops), max(step_bytes))
        # Stragglers stretch individual workers; the barrier waits for the
        # slowest, so each max is taken over straggler-scaled loads.  With
        # every factor at 1.0 this reduces bit-exactly to the plain path.
        step = self._step_index
        factors = [
            self.faults.straggler_factor(f, step) for f in range(self.num_workers)
        ]
        return self.clock.superstep_time(
            max(map(mul, step_ops, factors)), max(map(mul, step_bytes, factors))
        )

    def _hetero_superstep_time(self, step_ops: List[float]) -> float:
        """Capacity-scaled barrier: the slowest worker sets the pace.

        Each worker's op load is divided by its compute speed and each
        link's byte load by its effective bandwidth before the maxima,
        so a half-speed worker doubles its compute term and a
        quarter-bandwidth link quadruples its transfer term.  Stragglers
        and degraded-mode heir shares compose multiplicatively on top,
        exactly as on the homogeneous path.
        """
        spec = self._hetero_spec
        transfers = self._step_link_bytes / self._linkbw
        per_worker = transfers.sum(axis=1) + transfers.sum(axis=0)
        step = self._step_index
        alive = [f for f in range(self.num_workers) if f not in self._lost]
        ops = {f: step_ops[f] for f in alive}
        xbytes = {f: float(per_worker[f]) for f in alive}
        for dead in sorted(self._lost):
            for heir, share in sorted(self._lost[dead].items()):
                ops[heir] += step_ops[dead] * share
                xbytes[heir] += float(per_worker[dead]) * share
        if self.faults is not None:
            factors = {f: self.faults.straggler_factor(f, step) for f in alive}
        else:
            factors = {f: 1.0 for f in alive}
        max_ops = max(
            (ops[f] * factors[f] / spec.speeds[f] for f in alive), default=0.0
        )
        max_bytes = max((xbytes[f] * factors[f] for f in alive), default=0.0)
        return self.clock.superstep_time(max_ops, max_bytes)

    def _byte_time(self, nbytes: float) -> float:
        """Clock charge for shipping ``nbytes`` outside a superstep.

        Checkpoint, restore, and re-placement traffic is conservatively
        priced over the slowest link of a heterogeneous cluster; on the
        homogeneous path this is exactly ``nbytes * byte_cost``.
        """
        if self._hetero:
            return (nbytes / self._hetero_spec.min_bandwidth) * self.clock.byte_cost
        return nbytes * self.clock.byte_cost

    def _op_time(self, ops: float) -> float:
        """Clock charge for ``ops`` outside a superstep (slowest worker)."""
        if self._hetero:
            return (ops / self._hetero_spec.min_speed) * self.clock.op_cost
        return ops * self.clock.op_cost

    def _degraded_superstep_time(
        self, step_ops: List[float], step_bytes: List[float]
    ) -> float:
        """Barrier charge once workers have been permanently lost.

        The partition is never mutated, so algorithms keep charging work
        to lost fids; the fiction is that the heirs actually execute it,
        each taking its recorded share of the dead worker's ops and bytes.
        """
        ops = {f: step_ops[f] for f in range(self.num_workers) if f not in self._lost}
        nbytes = {f: step_bytes[f] for f in ops}
        for dead in sorted(self._lost):
            for heir, share in sorted(self._lost[dead].items()):
                ops[heir] += step_ops[dead] * share
                nbytes[heir] += step_bytes[dead] * share
        step = self._step_index
        factors = {f: self.faults.straggler_factor(f, step) for f in ops}
        max_ops = max((ops[f] * factors[f] for f in ops), default=0.0)
        max_bytes = max((nbytes[f] * factors[f] for f in ops), default=0.0)
        return self.clock.superstep_time(max_ops, max_bytes)
