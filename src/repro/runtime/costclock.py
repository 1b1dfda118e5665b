"""The simulated cost clock.

Charges follow a classic BSP cost model: a superstep costs

    max_f (ops_f * op_cost)  +  max_f (bytes_f * byte_cost)  +  latency

where ``bytes_f`` counts both traffic sent and received by worker ``f``
(a 10Gbps-NIC-style symmetric charge).  The defaults are arbitrary but
fixed; every comparison in the evaluation uses the same clock, so only
ratios matter — which is also all the paper claims transfer between
hardware ("the coefficients ... can be related to system characteristics
of our experiment setting", Exp-6).

Capacities never enter the clock: the cluster's
:class:`~repro.runtime.clusterspec.ClusterSpec` (the all-ones spec on a
homogeneous cluster) scales the *loads* before they reach
:meth:`CostClock.superstep_time` — worker op counts are divided by
per-worker compute speeds and link byte counts by per-link bandwidths —
so ``op_cost``/``byte_cost`` stay the price of one op/byte on a
speed-1.0 worker over a bandwidth-1.0 link.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class CostClock:
    """Per-unit charges of the BSP simulator.

    Attributes
    ----------
    op_cost:
        Simulated seconds per abstract computation operation.
    byte_cost:
        Simulated seconds per byte sent or received.
    superstep_latency:
        Fixed synchronization barrier cost per superstep.
    """

    op_cost: float = 1e-7
    byte_cost: float = 2e-9
    superstep_latency: float = 1e-4

    def superstep_time(self, max_ops: float, max_bytes: float) -> float:
        """Simulated wall-clock seconds of one superstep.

        Rejects negative or NaN loads: a buggy algorithm feeding garbage
        here would silently corrupt every downstream makespan comparison.
        """
        if max_ops < 0 or math.isnan(max_ops):
            raise ValueError(f"max_ops must be a non-negative number, got {max_ops}")
        if max_bytes < 0 or math.isnan(max_bytes):
            raise ValueError(
                f"max_bytes must be a non-negative number, got {max_bytes}"
            )
        return (
            max_ops * self.op_cost
            + max_bytes * self.byte_cost
            + self.superstep_latency
        )

    @classmethod
    def multicore(cls) -> "CostClock":
        """A shared-memory profile (the paper's second future-work item).

        On one multi-core machine "communication" is a cache-coherent
        store: per-byte cost two orders of magnitude below the network
        profile and barriers that cost microseconds, not NIC round
        trips.  Evaluating algorithms under this clock shows how the
        balance between computation and communication shifts the gains
        of application-driven partitioning.
        """
        return cls(op_cost=1e-7, byte_cost=2e-11, superstep_latency=1e-6)
