"""Partition-transparent triangle counting (TC) [50, 27, 40].

Degree-ordered wedge checking: orient each (undirected-view) edge from its
lower-ordered endpoint — order = (global degree, id) — so every triangle
has a unique *pivot*, its lowest-ordered vertex.  Each pivot enumerates
pairs of its oriented out-neighbors and verifies the closing edge:

* locally, when the closing edge is stored in the same fragment
  (Example 1: replication makes verification free — the motivation for
  VMerge); otherwise
* by a remote existence query to the fragments holding a copy of one
  endpoint — the communication that ``g_TC ∝ d_G · r · I`` models.

Pivots that are v-cut first merge their partial neighbor lists at the
master (as CN does), deduplicating replicated edges.

The e-cut wedges and the local closing-edge test are the ``tc`` row of
:data:`~repro.runtime.kernels.KERNELS`, reached through one
``Cluster.map`` over every fragment's pivots; its table's fragment-keyed
edge set answers every later closing-edge test too.  From there the run
is array-native: every missed wedge expands through the plan's
query-target table, and each kind of message a superstep sends is one
stream, cut every :data:`STRIDE` messages into multi-sender
``send_batch`` calls.  Superstep 1 sends the queries, then the ``inlist``
blocks (vertices plus a CSR into one flat neighbor column).  The
one-message-at-a-time loop it replaced is the test suite's differential
oracle (``scalar_runs``); both deliver the same inboxes and charge the
same integer byte counts to the same workers, links and masters — sums
that no order changes — so charges, link bytes, makespans and
checkpoints agree bit for bit (DESIGN §10).

Result values: the global triangle count.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

import numpy as np

from repro.algorithms.base import Algorithm
from repro.graph.digraph import _sorted_unique
from repro.partition.hybrid import HybridPartition
from repro.runtime.bsp import Cluster
from repro.runtime.kernels import KERNELS, closing, wedges
from repro.runtime.plan import ECUT as ROLE_ECUT
from repro.runtime.plan import DUMMY as ROLE_DUMMY
from repro.runtime.plan import gather_segments, plan_for

_EMPTY = np.empty(0, dtype=np.int64)

STRIDE = 1 << 16
"""Messages per ``send_batch`` call: bounds each call's transient arrays."""


def _cuts(*cols):
    """Columns aligned with the first one, cut every :data:`STRIDE`
    messages; a CSR pair ``(indptr, flat)`` is cut by rows."""
    for lo in range(0, cols[0].size, STRIDE):
        hi = lo + STRIDE
        yield [(c[0][lo : hi + 1], c[1]) if type(c) is tuple else c[lo:hi] for c in cols]


class TriangleCounting(Algorithm):
    """Exact global triangle count over the undirected view of the graph."""

    name = "tc"

    def _run(
        self, partition: HybridPartition, cluster: Cluster, params: Dict[str, Any]
    ) -> Any:
        """Count triangles over the partition (see class docs)."""
        return _count(partition, cluster)


def _count(partition: HybridPartition, cluster: Cluster) -> int:
    """The whole pump on ``cluster``: no per-message Python anywhere."""
    plan = plan_for(partition)
    targets = plan.query_targets()
    border = plan.border_mask
    degs = plan.degrees()
    kb = plan.key_base
    directed = plan.graph.directed
    workers = range(cluster.num_workers)
    triangles = 0
    next_qid = 0
    # Replies still owed per qid, in qid order: one array per batch of
    # queries until an answer round or a checkpoint folds them into one.
    owed: List[np.ndarray] = [_EMPTY]

    def fold() -> np.ndarray:
        owed[:] = [np.concatenate(owed)]
        return owed[0]

    def snapshot() -> Tuple[int, Dict[int, List]]:
        """The scalar route's ``(triangles, pending)``, built only on demand."""
        left = fold()
        live = np.flatnonzero(left)
        counts = zip(live.tolist(), left[live].tolist())
        return triangles, {qid: [n, False] for qid, n in counts}

    cluster.set_snapshot(snapshot)

    def expand(src: np.ndarray, wa: np.ndarray, wb: np.ndarray, pivots: np.ndarray):
        """Query messages for missed wedges found at fragments ``src``.

        Each wedge asks the targets of ``a`` (one home, or every bearing
        copy in ``placement()`` order) except its own fragment; one left
        with nobody to ask is settled — the fragment already holds all
        the relevant edges — and takes no qid.  Returns, wedge-major, the
        messages' aligned columns ``(sender, dst, master vertex, qid, a,
        b)``.
        """
        nonlocal next_qid
        idx, lens = gather_segments(targets.indptr, wa)
        dst = targets.fids[idx]
        wedge = np.repeat(np.arange(wa.size), lens)
        remote = dst != src[wedge]
        dst, wedge = dst[remote], wedge[remote]
        asked = np.bincount(wedge, minlength=wa.size)
        live = asked > 0
        qid = next_qid - 1 + np.cumsum(live)
        next_qid += int(live.sum())
        owed.append(asked[live])
        attributed = np.where(border[pivots], pivots, -1)
        src, *cols = (col[wedge] for col in (src, attributed, qid, wa, wb))
        return src, dst, *cols

    # Superstep 1: e-cut pivots work locally; v-cut copies ship lists.
    # The kernel enumerates the e-cut wedges and hands back those whose
    # closing edge the pivot's fragment does not store (fragment-major);
    # the sends stay here.
    kernel = KERNELS["tc"]
    ecut = kernel.tables(plan)
    pairs = ecut.ks * (ecut.ks - 1) // 2
    fids = _sorted_unique(ecut.fids[pairs > 0]).tolist()
    wa, wb, wp = cluster.map(kernel, ecut, (), fids, (kb, directed))
    triangles += int(pairs.sum()) - wa.size
    row = np.searchsorted(ecut.eslots, wp)  # each missed wedge's pivot
    src, pivots = ecut.fids[row], ecut.verts[row]
    inlists = [(_EMPTY,) * 4]
    for fid in workers:
        verts = plan.verts(fid)
        roles = plan.roles(fid)
        nondummy = np.flatnonzero(roles != ROLE_DUMMY)
        if nondummy.size == 0:
            continue
        t = plan.tc_tables(fid)
        cluster.charge_bulk(
            fid, np.maximum(1, t.counts[nondummy]), vertices=verts[nondummy]
        )
        vslots = nondummy[roles[nondummy] != ROLE_ECUT]
        idx, lens = gather_segments(t.indptr, vslots)
        inlists.append((np.full(lens.size, fid), verts[vslots], lens, t.nbrs[idx]))
    # k*(k-1) per pivot = the scalar C(k,2) upfront charge plus 1 per
    # checked wedge.
    cluster.charge_bulk(ecut.fids, 2 * pairs, vertices=ecut.verts)
    for s, d, m, *cols in _cuts(*expand(src, wa, wb, pivots)):
        cluster.send_batch(s, d, 20.0, master_vertices=m, payloads=("query", *cols))
    isrc, iv, lens, nbrs = map(np.concatenate, zip(*inlists))
    csr = (np.concatenate(([0], np.cumsum(lens))), nbrs)
    wire = 8.0 * np.maximum(1, lens)
    for s, d, v, rows, w in _cuts(isrc, plan.master_of[iv], iv, csr, wire):
        cluster.send_batch(s, d, w, master_vertices=v, payloads=("inlist", v, rows))

    def merged_pivots(lists: List[Tuple]) -> None:
        """Wedges of the v-cut pivots whose partial lists met at their masters."""
        nonlocal triangles
        # One sort merges and deduplicates every list, pivots ascending;
        # a second orders each pivot's higher-ranked neighbors by rank.
        owner = np.concatenate([np.repeat(m[2], np.diff(m[3][0])) for m in lists])
        keys = _sorted_unique(owner * kb + np.concatenate([m[3][1] for m in lists]))
        pv, nbr = keys // kb, keys % kb
        okey = degs[nbr] * kb + nbr
        above = okey > degs[pv] * kb + pv
        pv, nbr, okey = pv[above], nbr[above], okey[above]
        pivots, starts, ks = np.unique(pv, return_index=True, return_counts=True)
        at = plan.master_of[pivots]
        cluster.charge_bulk(at, ks * (ks - 1), vertices=pivots)
        wa, wb, row = wedges(nbr[np.lexsort((okey, pv))], starts, ks)
        src = at[row]
        miss = ~closing(ecut.ekeys, wa, wb, kb, directed, src)
        triangles += wa.size - int(miss.sum())
        # Queries leave in pivot order, which interleaves senders.
        msgs = expand(src[miss], wa[miss], wb[miss], pivots[row[miss]])
        for s, d, m, *cols in _cuts(*msgs):
            cluster.send_batch(s, d, 20.0, master_vertices=m, payloads=("query", *cols))

    # Pump supersteps until all list merges/queries/answers settle.
    inboxes = cluster.deliver()
    while any(inboxes.values()):
        # Blocks are (tag, senders, columns...); concatenated in inbox
        # order they are the scalar route's message sequence.
        blocks = [m for fid in workers for m in inboxes[fid]]
        lists = [m for m in blocks if m[0] == "inlist"]
        if lists:
            merged_pivots(lists)
        answers = [m for m in blocks if m[0] == "answer"]
        if answers:
            qid = np.concatenate([m[2] for m in answers])
            hit = np.concatenate([m[3] for m in answers])
            # All of a qid's answers land in one superstep.
            left = fold()
            left -= np.bincount(qid, minlength=left.size)
            triangles += _sorted_unique(qid[hit]).size
        replies = []
        for fid in workers:
            queries = [m for m in inboxes[fid] if m[0] == "query"]
            if queries:
                ask, qid, qa, qb = (
                    np.concatenate([m[i] for m in queries]) for i in range(1, 5)
                )
                cluster.charge(fid, qid.size)
                hit = closing(ecut.ekeys, qa, qb, kb, directed, fid)
                replies.append((np.full(qid.size, fid), ask, qid, hit))
        if replies:
            for s, d, *cols in _cuts(*map(np.concatenate, zip(*replies))):
                cluster.send_batch(s, d, 9.0, payloads=("answer", *cols))
        inboxes = cluster.deliver()
    return triangles
