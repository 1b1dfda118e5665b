"""Simulated shared-nothing BSP runtime (substitute for the GRAPE cluster).

The paper evaluates on a 32-machine cluster running GRAPE under the BSP
model (Section 5.3, Section 7).  This package provides a deterministic
single-process *simulator* of that setting:

* every fragment of a :class:`~repro.partition.hybrid.HybridPartition`
  maps to one simulated worker;
* computation proceeds in supersteps; messages posted during a superstep
  are delivered at the next one;
* a :class:`~repro.runtime.costclock.CostClock` charges per-operation
  compute time and per-byte communication time and aggregates the
  per-superstep **maximum over workers** — i.e. exactly the parallel cost
  ``max_i C_A(F_i)`` that application-driven partitioning minimizes.

The simulator also powers training-data collection: per-vertex-copy
operation counts and per-master communication bytes are recorded in a
:class:`~repro.runtime.instrumentation.RunProfile`.

The substrate can degrade on demand: a declarative
:class:`~repro.runtime.faults.FaultPlan` schedules worker crashes,
permanent worker losses (survived by replica-promotion failover — see
:mod:`repro.runtime.failover`) and stragglers, while
:class:`~repro.runtime.checkpoint.CheckpointManager` provides the
superstep checkpoints that rollback recovery replays from — all
deterministic, all charged to the same clock.  The plan is the run's
whole fault record: the same plan gives the same run.
"""

from repro.runtime.checkpoint import Checkpoint, CheckpointManager
from repro.runtime.costclock import CostClock
from repro.runtime.failover import FailoverDecision, FailoverState
from repro.runtime.faults import (
    CrashFault,
    FaultPlan,
    PermanentLossFault,
    StragglerFault,
)
from repro.runtime.instrumentation import (
    FailureEvent,
    RunProfile,
    SuperstepRecord,
)
from repro.runtime.bsp import Cluster

__all__ = [
    "Checkpoint",
    "CheckpointManager",
    "CostClock",
    "CrashFault",
    "FailoverDecision",
    "FailoverState",
    "FailureEvent",
    "FaultPlan",
    "PermanentLossFault",
    "RunProfile",
    "StragglerFault",
    "SuperstepRecord",
    "Cluster",
]
