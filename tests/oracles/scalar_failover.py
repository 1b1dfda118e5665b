"""``FailoverState``'s dict/set twin, frozen.

Verbatim body of ``repro.runtime.failover.ScalarFailoverState`` as it stood
when ``src/`` shipped it next to the array pass as its differential
reference; only the imports changed.  Every decision and every post-loss
routing state of ``FailoverState`` must match it bit for bit
(``tests/runtime/test_failover.py``).
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from repro.partition.hybrid import HybridPartition
from repro.runtime.failover import (
    EDGE_RECORD_BYTES,
    VERTEX_STATE_BYTES,
    FailoverDecision,
    _heir_shares,
    _vertex_degrees,
)


class ScalarFailoverState:
    """Dict/set reference implementation of :class:`FailoverState`.

    Kept purely as the differential-testing oracle: every decision and
    every post-loss routing state must match the array pass bit for bit.
    """

    def __init__(self, partition: HybridPartition) -> None:
        self.num_vertices = partition.graph.num_vertices
        self.num_fragments = partition.num_fragments
        self.masters: Dict[int, int] = {}
        self.placement: Dict[int, set] = {}
        for v, hosts in partition.vertex_fragments():
            self.masters[v] = partition.master(v)
            self.placement[v] = set(hosts)
        self.degrees = _vertex_degrees(partition.graph)

    def fail(self, dead: int, survivors: Sequence[int]) -> FailoverDecision:
        """Apply the loss of worker ``dead``; return what changed."""
        survivors = sorted(int(f) for f in survivors)
        affected = sorted(
            v for v, hosts in self.placement.items() if dead in hosts
        )
        for v in affected:
            self.placement[v].discard(dead)

        promoted: List[int] = []
        new_masters: List[int] = []
        orphans: List[int] = []
        for v in affected:
            hosts = self.placement[v]
            if hosts:
                if self.masters[v] == dead:
                    master = min(hosts)
                    self.masters[v] = master
                    promoted.append(v)
                    new_masters.append(master)
            else:
                orphans.append(v)

        loads = {
            fid: sum(1 for hosts in self.placement.values() if fid in hosts)
            for fid in survivors
        }
        orphan_dests: List[int] = []
        for v in orphans:
            fid = min(survivors, key=lambda f: (loads[f], f))
            orphan_dests.append(fid)
            loads[fid] += 1
            self.placement[v].add(fid)
            self.masters[v] = fid

        replacement_bytes = 0.0
        bytes_by_dest: Dict[int, float] = {}
        for v, fid in zip(orphans, orphan_dests):
            nbytes = VERTEX_STATE_BYTES + EDGE_RECORD_BYTES * float(
                self.degrees[v]
            )
            replacement_bytes += nbytes
            bytes_by_dest[fid] = bytes_by_dest.get(fid, 0.0) + nbytes

        counts: Dict[int, int] = {}
        for fid in new_masters + orphan_dests:
            counts[fid] = counts.get(fid, 0) + 1
        rebuild_entries = (
            sum(len(hosts) for hosts in self.placement.values())
            + self.num_vertices
        )
        return FailoverDecision(
            dead=int(dead),
            promoted=np.asarray(promoted, dtype=np.int64),
            new_masters=np.asarray(new_masters, dtype=np.int64),
            orphans=np.asarray(orphans, dtype=np.int64),
            orphan_dests=np.asarray(orphan_dests, dtype=np.int64),
            heir_shares=_heir_shares(survivors, counts),
            replacement_bytes=replacement_bytes,
            bytes_by_dest=bytes_by_dest,
            rebuild_entries=rebuild_entries,
        )
