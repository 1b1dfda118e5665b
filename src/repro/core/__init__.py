"""The paper's contribution: application-driven partition refiners.

Given a learned cost model ``(h_A, g_A)`` and an initial edge-cut or
vertex-cut partition from any baseline partitioner, the refiners produce
a hybrid partition tailored to algorithm ``A``:

* :class:`~repro.core.e2h.E2H` — edge-cut → hybrid (Section 5.1):
  EMigrate, ESplit, MAssign;
* :class:`~repro.core.v2h.V2H` — vertex-cut → hybrid (Section 5.2):
  VMigrate, VMerge, MAssign;
* :class:`~repro.core.me2h.ME2H` / :class:`~repro.core.mv2h.MV2H` —
  composite refiners for a batch of algorithms (Section 6), emitting a
  :class:`~repro.partition.composite.CompositePartition`; both are
  :class:`~repro.core.me2h.CompositeRefiner` (Fig. 6's skeleton), each
  supplying only what differs by cut type;
* :mod:`~repro.core.parallel` — ParE2H / ParV2H / ParME2H / ParMV2H, the
  BSP-parallelized variants with per-phase time profiles (Section 5.3);
* :mod:`~repro.core.adp` — the ADP decision problem and the Theorem 1
  reduction from set partition.

All of them run through :mod:`~repro.core.driver` (DESIGN §8.1): one
:class:`~repro.core.driver.RefineSession` per output partition builds
and tears down the guard → value-memo → counting → tracker stack, its
tracker prices every candidate, and :func:`~repro.core.driver.
run_pass` is the single-output pass body whose scope — everything, or
the dirty frontier of a :class:`MutationBatch` applied in place by
:func:`apply_mutations` — is data.  :func:`refiner_class` maps a
baseline's cut type to its refiner.
"""

from repro.core.tracker import CostTracker, TrackerSeed
from repro.core.budget import compute_budget, classify_fragments
from repro.core.candidates import get_candidates
from repro.core.dirty import (
    IncrementalStats,
    RescoringModel,
    dirty_frontier,
    touched_fragments,
)
from repro.core.gaincache import (
    GainCacheStats,
    MemoizedCostModel,
    memoize_cost_model,
)
from repro.core.massign import massign
from repro.core.driver import DirtyScope, RefineSession, run_pass
from repro.core.e2h import E2H, RefineStats
from repro.core.v2h import V2H
from repro.core.getdest import get_dest
from repro.core.me2h import ME2H
from repro.core.mv2h import MV2H
from repro.core.parallel import ParE2H, ParV2H, ParME2H, ParMV2H, RefinementProfile
from repro.core.adp import ADPInstance, adp_decision, reduction_from_set_partition
from repro.core.incremental import MutationBatch, apply_mutations


def refiner_class(cut_type: str, composite: bool = False, parallel: bool = False):
    """The refiner class for a baseline of ``cut_type`` (``"edge"`` or
    ``"vertex"``); hybrid baselines cannot be refined."""
    table = {
        "edge": ((E2H, ParE2H), (ME2H, ParME2H)),
        "vertex": ((V2H, ParV2H), (MV2H, ParMV2H)),
    }
    if cut_type not in table:
        verb = "composite-refine" if composite else "refine"
        raise ValueError(f"cannot {verb} a {cut_type!r} baseline")
    return table[cut_type][composite][parallel]


__all__ = [
    "CostTracker",
    "TrackerSeed",
    "IncrementalStats",
    "RescoringModel",
    "dirty_frontier",
    "touched_fragments",
    "compute_budget",
    "classify_fragments",
    "get_candidates",
    "GainCacheStats",
    "MemoizedCostModel",
    "memoize_cost_model",
    "massign",
    "RefineSession",
    "RefineStats",
    "DirtyScope",
    "run_pass",
    "refiner_class",
    "E2H",
    "V2H",
    "ME2H",
    "MV2H",
    "ParE2H",
    "ParV2H",
    "ParME2H",
    "ParMV2H",
    "RefinementProfile",
    "ADPInstance",
    "adp_decision",
    "reduction_from_set_partition",
    "MutationBatch",
    "apply_mutations",
]
