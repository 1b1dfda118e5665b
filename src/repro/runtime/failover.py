"""Permanent worker-loss failover: replica promotion and re-placement.

When a :class:`~repro.runtime.faults.PermanentLossFault` fires, the
cluster loses fragment ``dead`` for good.  The hybrid cuts of the paper
already maintain mirror replicas of border vertices, which is exactly
the substrate needed to survive the loss without a full restart:

1. **Promotion** — every vertex whose master lived on the dead worker
   but that still has a surviving copy gets its master re-pointed at the
   lowest surviving host (the same ``min(hosts)`` rule
   ``HybridPartition.remove_vertex_from`` applies when a master copy is
   removed).
2. **Re-placement** — vertices whose *only* copy died are re-created on
   survivors, greedily onto the fragment currently holding the fewest
   copies (ties to the lowest fid) — the same cheapest-fragment fallback
   the refinement guard uses when its budget runs out.  Re-creating a
   vertex ships its state plus every incident edge (if the only copy of
   ``v`` was on the dead fragment, every edge incident to ``v`` was
   too — any fragment holding such an edge would hold a copy of ``v``).
3. **Routing-table rebuild** — the FragmentPlan-equivalent routing
   tables are recompiled over the survivors.

The decision is computed by an **array pass** over the routing tables a
:class:`~repro.runtime.plan.FragmentPlan` snapshots (boolean copies
matrix + master vector); the dict/set pass it replaced is the test
suite's oracle (``scalar_failover``).  It is a pure simulation of the
recovery protocol: the partition object is never mutated, which is what
keeps algorithm results bit-identical to a clean run (the same
reliable-transport fiction the crash path uses — see
:meth:`repro.runtime.bsp.Cluster.deliver`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

import numpy as np

from repro.runtime.plan import FragmentPlan

#: simulated serialized size of one vertex's algorithm state (bytes)
VERTEX_STATE_BYTES = 12.0
#: simulated serialized size of one edge record (bytes)
EDGE_RECORD_BYTES = 12.0

_EMPTY = np.empty(0, dtype=np.int64)


@dataclass(frozen=True)
class FailoverDecision:
    """What one permanent loss changed, and what shipping it costs.

    ``promoted``/``new_masters`` pair up (ascending vertex order), as do
    ``orphans``/``orphan_dests``.  ``heir_shares`` maps each surviving
    worker to the fraction of the dead worker's future logical load it
    absorbs (proportional to the promoted + re-placed vertices it took
    over; the lowest survivor takes everything when the dead fragment
    held no vertices).
    """

    dead: int
    promoted: np.ndarray
    new_masters: np.ndarray
    orphans: np.ndarray
    orphan_dests: np.ndarray
    heir_shares: Dict[int, float]
    replacement_bytes: float
    bytes_by_dest: Dict[int, float]
    rebuild_entries: int

    @property
    def promoted_count(self) -> int:
        """Number of masters promoted onto survivors."""
        return int(self.promoted.size)

    @property
    def replaced_count(self) -> int:
        """Number of sole-copy vertices re-placed onto survivors."""
        return int(self.orphans.size)

    def same_as(self, other: "FailoverDecision") -> bool:
        """Field-by-field equality (arrays compared by value)."""
        return (
            self.dead == other.dead
            and np.array_equal(self.promoted, other.promoted)
            and np.array_equal(self.new_masters, other.new_masters)
            and np.array_equal(self.orphans, other.orphans)
            and np.array_equal(self.orphan_dests, other.orphan_dests)
            and self.heir_shares == other.heir_shares
            and self.replacement_bytes == other.replacement_bytes
            and self.bytes_by_dest == other.bytes_by_dest
            and self.rebuild_entries == other.rebuild_entries
        )


def _vertex_degrees(graph) -> np.ndarray:
    """Incident-edge count per vertex (both directions when directed)."""
    if graph.directed:
        return (graph.out_degrees() + graph.in_degrees()).astype(np.int64)
    return graph.out_degrees().astype(np.int64)


def _heir_shares(
    survivors: Sequence[int], counts: Dict[int, int]
) -> Dict[int, float]:
    total = sum(counts.values())
    if total == 0:
        return {int(survivors[0]): 1.0}
    return {int(fid): count / total for fid, count in sorted(counts.items())}


class FailoverState:
    """Array-based routing-table view maintained across losses.

    Built once from a :class:`FragmentPlan` snapshot on the first loss;
    subsequent losses mutate the copies matrix and master vector in
    place, so multi-loss runs promote from the *current* routing state,
    not the original partition.
    """

    def __init__(self, plan: FragmentPlan) -> None:
        self.num_vertices = plan.num_vertices
        self.num_fragments = plan.num_fragments
        self.masters = plan.master_of.copy()
        self.copies = self._copies_matrix(plan)
        self.degrees = _vertex_degrees(plan.graph)

    @staticmethod
    def _copies_matrix(plan: FragmentPlan) -> np.ndarray:
        mat = np.zeros((plan.num_vertices, plan.num_fragments), dtype=bool)
        if plan.place_fids.size:
            rows = np.repeat(
                np.arange(plan.num_vertices, dtype=np.int64),
                np.diff(plan.place_indptr),
            )
            mat[rows, plan.place_fids] = True
        return mat

    def fail(self, dead: int, survivors: Sequence[int]) -> FailoverDecision:
        """Apply the loss of worker ``dead``; return what changed."""
        survivors = sorted(int(f) for f in survivors)
        held = self.copies[:, dead].copy()
        self.copies[:, dead] = False
        affected = np.nonzero(held)[0]
        if affected.size:
            surv_cols = self.copies[np.ix_(affected, survivors)]
            has_survivor = surv_cols.any(axis=1)
        else:
            surv_cols = np.zeros((0, len(survivors)), dtype=bool)
            has_survivor = np.zeros(0, dtype=bool)

        promoted_mask = (self.masters[affected] == dead) & has_survivor
        promoted = affected[promoted_mask]
        if promoted.size:
            # argmax over ascending survivor columns = lowest surviving
            # host, matching the scalar min(hosts) promotion rule.
            first = np.argmax(surv_cols[promoted_mask], axis=1)
            new_masters = np.asarray(survivors, dtype=np.int64)[first]
        else:
            new_masters = _EMPTY
        self.masters[promoted] = new_masters

        orphans = affected[~has_survivor]
        loads = self.copies[:, survivors].sum(axis=0).astype(np.int64)
        orphan_dests = np.empty(orphans.size, dtype=np.int64)
        for i, v in enumerate(orphans.tolist()):
            j = int(np.argmin(loads))  # ties break to the lowest fid
            fid = survivors[j]
            orphan_dests[i] = fid
            loads[j] += 1
            self.copies[v, fid] = True
            self.masters[v] = fid

        replacement_bytes = 0.0
        bytes_by_dest: Dict[int, float] = {}
        for v, fid in zip(orphans.tolist(), orphan_dests.tolist()):
            nbytes = VERTEX_STATE_BYTES + EDGE_RECORD_BYTES * float(
                self.degrees[v]
            )
            replacement_bytes += nbytes
            bytes_by_dest[fid] = bytes_by_dest.get(fid, 0.0) + nbytes

        counts: Dict[int, int] = {}
        for fid in new_masters.tolist():
            counts[fid] = counts.get(fid, 0) + 1
        for fid in orphan_dests.tolist():
            counts[fid] = counts.get(fid, 0) + 1
        return FailoverDecision(
            dead=int(dead),
            promoted=promoted.astype(np.int64),
            new_masters=new_masters,
            orphans=orphans.astype(np.int64),
            orphan_dests=orphan_dests,
            heir_shares=_heir_shares(survivors, counts),
            replacement_bytes=replacement_bytes,
            bytes_by_dest=bytes_by_dest,
            rebuild_entries=int(self.copies.sum()) + self.num_vertices,
        )
