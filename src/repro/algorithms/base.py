"""Algorithm protocol and shared helpers for partition transparency.

Hybrid partitions may *replicate* edges (Section 2), so algorithms that
aggregate over edges must not double count.  The tables that prevent it
live on the partition's :class:`~repro.runtime.plan.FragmentPlan`:
``owned_edges`` designates one owning fragment per edge for
edge-parallel aggregation such as PageRank's scatter phase, and
``roles`` marks the cost-bearing (non-dummy) copies at which
vertex-centric computation happens, matching the cost attribution of
Eq. 2.

An algorithm does not know where it executes: its per-fragment array
compute is a row of :data:`repro.runtime.kernels.KERNELS` that it asks
the cluster to map over the fragments it chose, in-process or in worker
processes (the ``backend`` run param).
"""

from __future__ import annotations

import abc
import numbers
from contextlib import closing
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple, Union

import numpy as np

from repro.partition.hybrid import HybridPartition
from repro.runtime.bsp import Cluster
from repro.runtime.clusterspec import cluster_spec_default, coerce_cluster_spec
from repro.runtime.costclock import CostClock
from repro.runtime.faults import FaultPlan
from repro.runtime.instrumentation import RunProfile

#: run params every algorithm accepts; :meth:`Algorithm._cluster` consumes them
RUNTIME_PARAMS = (
    "faults",
    "checkpoint_interval",
    "cluster_spec",
    "backend",
    "shm_workers",
)


@dataclass
class AlgorithmResult:
    """Output of one partition-transparent run."""

    values: Any
    profile: RunProfile

    @property
    def makespan(self) -> float:
        """Simulated parallel runtime in seconds."""
        return self.profile.makespan


class Algorithm(abc.ABC):
    """A graph algorithm runnable over any hybrid partition.

    Fault tolerance is driver-level and transparent to implementations:
    :meth:`configure_faults` (or the per-run ``faults`` /
    ``checkpoint_interval`` params) threads a fault plan and checkpoint
    interval into the simulated cluster, each implementation registers
    its vertex state via :meth:`Cluster.set_snapshot`, and the cluster's
    rollback-recovery loop does the rest.  Results are unchanged by
    construction; only the profile gains failure/recovery accounting.
    """

    #: short registry name, e.g. ``"pr"``
    name: str = "abstract"

    #: the algorithm's own ``run`` params, next to :data:`RUNTIME_PARAMS`
    run_params: Tuple[str, ...] = ()

    #: default runtime-degradation config; see :meth:`configure_faults`
    fault_plan: Optional[FaultPlan] = None
    checkpoint_interval: int = 0

    def run(
        self,
        partition: HybridPartition,
        clock: Optional[CostClock] = None,
        **params: Any,
    ) -> AlgorithmResult:
        """Execute over ``partition`` on a fresh simulated cluster.

        All implementations accept the :data:`RUNTIME_PARAMS` (e.g.
        ``faults``, a :class:`FaultPlan`, and ``checkpoint_interval``,
        supersteps between state snapshots) next to their own
        :attr:`run_params`; any other key is a ``TypeError``.

        The cluster is closed on every exit path, so what the backend
        holds (a shared-memory arena) never outlives the run.
        """
        with closing(self._cluster(partition, clock, params)) as cluster:
            values = self._run(partition, cluster, params)
            return AlgorithmResult(values=values, profile=cluster.finish())

    def _run(
        self, partition: HybridPartition, cluster: Cluster, params: Dict[str, Any]
    ) -> Any:
        """The supersteps on ``cluster``; returns the result values."""
        raise NotImplementedError

    def configure_faults(
        self,
        faults: Optional[FaultPlan] = None,
        checkpoint_interval: int = 0,
    ) -> "Algorithm":
        """Set the default fault plan / checkpoint interval for future runs.

        Returns ``self`` so call sites can chain
        ``get_algorithm("pr").configure_faults(plan, 4).run(partition)``.
        """
        self.fault_plan = faults
        self.checkpoint_interval = int(checkpoint_interval)
        return self

    def _cluster(
        self,
        partition: HybridPartition,
        clock: Optional[CostClock],
        params: Dict[str, Any],
    ) -> Cluster:
        """Build the run's cluster, consuming the runtime params.

        The ``cluster_spec`` run param (a :class:`ClusterSpec`, its dict
        payload, or a spec file path) activates heterogeneous-capacity
        accounting; it defaults to the process-wide active spec.

        What is left in ``params`` afterwards must be the algorithm's own
        :attr:`run_params`: a misspelt key would otherwise run with the
        default it was meant to replace.
        """
        faults = params.pop("faults", self.fault_plan)
        checkpoint_interval = int(
            params.pop("checkpoint_interval", self.checkpoint_interval) or 0
        )
        spec = params.pop("cluster_spec", None)
        backend = params.pop("backend", None)
        shm_workers = params.pop("shm_workers", None)
        unknown = sorted(set(params) - set(self.run_params))
        if unknown:
            raise TypeError(
                f"{self.name}.run() got unexpected param(s) "
                f"{', '.join(unknown)}; accepted: "
                f"{', '.join(self.run_params + RUNTIME_PARAMS)}"
            )
        if spec is None:
            spec = cluster_spec_default()
        return Cluster(
            partition,
            clock=clock,
            faults=faults,
            checkpoint_interval=checkpoint_interval,
            spec=coerce_cluster_spec(spec),
            backend=backend,
            shm_workers=shm_workers,
        )


def iterations_param(params: Dict[str, Any], name: str, default: int) -> int:
    """The run param ``name`` (else ``default``), which must be an int ≥ 1.

    A fixpoint loop bounded by zero or fewer supersteps would return its
    initial state as the answer; ``bool`` is not an iteration count.
    """
    value = params.get(name, default)
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
        raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
    return int(value)


def global_or(
    cluster: Cluster, flags: Union[np.ndarray, Dict[int, bool]]
) -> bool:
    """Reduce per-worker flags to a global OR (two supersteps).

    ``flags`` is one entry per worker (an array; every worker votes) or a
    ``{worker: flag}`` dict of the voters.  Worker 0 coordinates; used for
    convergence detection in WCC/SSSP.  Each way is one ``send_batch`` of
    one-byte messages — every voter to worker 0, then worker 0 to every
    worker — accounted like the per-worker sends they stand for; no
    payload travels, since the result is known the moment the flags are.
    """
    if isinstance(flags, dict):
        voters = np.fromiter(flags, np.int64, len(flags))
        vote = any(flags.values())
    else:
        voters = cluster.workers
        vote = bool(flags.any())
    cluster.send_batch(voters, np.zeros_like(voters), 1.0)
    cluster.deliver()
    cluster.send_batch(0, cluster.workers, 1.0)
    cluster.deliver()
    return vote
