"""Kernel-route triangle counting, frozen from before the pump went array-native.

Verbatim copy of ``repro.algorithms.triangles`` as it stood when the kernel
route batched only single-home closing endpoints and dropped to the scalar
``remote_check`` (one ``partition.role`` / ``designated_home`` callback and one
``Cluster.send`` per target) for every v-cut endpoint, with one Python tuple
per query / answer in the inboxes and a ``pending`` dict entry per query.  Two
edits: ``Cluster.send_batch(payloads=[...])`` took one object per message
then, :func:`_send_rows` below is that row form; and ``use_kernels``, a run
param then, is pinned to the kernel route this file freezes (its
``use_kernels=False`` branches are the loop of ``scalar_runs``, which is what
the suites call for it).  The array-native pump must
keep producing this run's values, makespan, profile (charges, link
bytes) and checkpoint bytes (``tests/runtime/test_tc_pump.py``).  Re-frozen once in
canonical order: a fragment's vertices and a v-cut vertex's query targets
are walked sorted, where they were walked in insertion and hash order.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Set, Tuple

import numpy as np

from repro.algorithms.base import Algorithm, AlgorithmResult
from repro.partition.hybrid import HybridPartition, NodeRole
from repro.runtime.costclock import CostClock
from repro.runtime.plan import ECUT as ROLE_ECUT
from repro.runtime.plan import DUMMY as ROLE_DUMMY
from repro.runtime.plan import plan_for


def _send_rows(cluster, src, dsts, nbytes, master_vertices=None, payloads=()):
    """``send_batch`` with one inbox object per message (its old ``payloads``)."""
    for dst, payload in zip(np.asarray(dsts).tolist(), payloads):
        cluster._outbox[dst].append(payload)
    cluster.send_batch(src, dsts, nbytes, master_vertices=master_vertices)


def _group_misses(
    wa: np.ndarray, wb: np.ndarray, wp: np.ndarray
) -> Dict[int, Tuple[np.ndarray, np.ndarray]]:
    """Group missed wedges (already miss-filtered) by pivot slot.

    ``wp`` is slot-major, so the misses form contiguous runs per pivot;
    shared by the in-process and shm-worker paths so both produce the
    identical per-slot arrays the query loop consumes.
    """
    out: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
    if wp.size:
        uslots, starts = np.unique(wp, return_index=True)
        ends = np.append(starts[1:], wp.size)
        for s, lo, hi in zip(uslots.tolist(), starts.tolist(), ends.tolist()):
            out[int(s)] = (wa[lo:hi], wb[lo:hi])
    return out


class TriangleCounting(Algorithm):
    """Exact global triangle count over the undirected view of the graph."""

    name = "tc"

    def run(
        self,
        partition: HybridPartition,
        clock: Optional[CostClock] = None,
        **params: Any,
    ) -> AlgorithmResult:
        """Count triangles over the partition (see class docs)."""
        graph = partition.graph
        use_kernels = True
        cluster = self._cluster(partition, clock, params)

        def order(v: int) -> Tuple[int, int]:
            return (graph.degree(v), v)

        def local_has(fid: int, a: int, b: int) -> bool:
            fragment = partition.fragments[fid]
            return fragment.has_edge(graph.canonical_edge(a, b)) or (
                graph.directed and fragment.has_edge(graph.canonical_edge(b, a))
            )

        triangles = 0
        # qid -> [outstanding replies, found flag]
        pending: Dict[int, List] = {}
        next_qid = 0
        cluster.set_snapshot(lambda: (triangles, pending))

        def remote_check(fid: int, pivot: int, a: int, b: int) -> None:
            """Query remote fragments for closing edge (a, b)."""
            nonlocal next_qid
            # One query to a's designated home suffices when a is e-cut
            # (the home holds all of a's edges); otherwise every bearing
            # copy of a must be asked (dummy copies hold only duplicates).
            home = partition.designated_home(a)
            if home is not None:
                targets = [] if home == fid else [home]
            else:
                targets = [
                    f
                    for f in sorted(partition.placement(a))
                    if f != fid and partition.cost_bearing(a, f)
                ]
            if not targets:
                return  # fid already holds all relevant edges of a
            qid = next_qid
            next_qid += 1
            pending[qid] = [len(targets), False]
            for target in targets:
                cluster.send(
                    fid,
                    target,
                    ("query", qid, a, b, fid),
                    nbytes=20.0,
                    master_vertex=pivot if partition.is_border(pivot) else None,
                )

        def check_wedge(fid: int, pivot: int, a: int, b: int) -> None:
            """Verify closing edge (a, b) for a wedge generated at ``fid``."""
            nonlocal triangles
            cluster.charge(fid, 1, vertex=pivot)
            if local_has(fid, a, b):
                triangles += 1
                return
            remote_check(fid, pivot, a, b)

        def process_pivot(fid: int, pivot: int, neighbors: Set[int]) -> None:
            ordered = sorted(
                (w for w in neighbors if order(w) > order(pivot)), key=order
            )
            k = len(ordered)
            cluster.charge(fid, k * (k - 1) // 2, vertex=pivot)
            for i in range(k):
                for j in range(i + 1, k):
                    check_wedge(fid, pivot, ordered[i], ordered[j])

        # Superstep 1: e-cut pivots work locally; v-cut copies ship lists.
        if use_kernels:
            plan = plan_for(partition)
            for fragment in partition.fragments:
                fid = fragment.fid
                verts = plan.verts(fid)
                if verts.size == 0:
                    continue
                roles = plan.roles(fid)
                nondummy = np.nonzero(roles != ROLE_DUMMY)[0]
                if nondummy.size == 0:
                    continue
                t = plan.tc_tables(fid)
                cluster.charge_bulk(
                    fid, np.maximum(1, t.counts[nondummy]), vertices=verts[nondummy]
                )
                ecut_slots = nondummy[roles[nondummy] == ROLE_ECUT]
                # Wedge enumeration + local membership, batched.  Charges
                # k*(k-1) per pivot = the scalar C(k,2) upfront charge
                # plus 1 per checked wedge.
                miss_by_slot: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
                if ecut_slots.size:
                    ks = t.ocounts[ecut_slots]
                    cluster.charge_bulk(
                        fid, ks * (ks - 1), vertices=verts[ecut_slots]
                    )
                    wa_parts, wb_parts, wp_parts = [], [], []
                    for slot, k in zip(ecut_slots.tolist(), ks.tolist()):
                        if k < 2:
                            continue
                        start = int(t.oindptr[slot])
                        seg = t.onbrs[start : start + k]
                        ii, jj = plan.triu_pairs(k)
                        wa_parts.append(seg[ii])
                        wb_parts.append(seg[jj])
                        wp_parts.append(
                            np.full(ii.size, slot, dtype=np.int64)
                        )
                    if wa_parts:
                        wa = np.concatenate(wa_parts)
                        wb = np.concatenate(wb_parts)
                        wp = np.concatenate(wp_parts)
                        if graph.directed:
                            found = plan.has_edges(
                                fid, wa, wb
                            ) | plan.has_edges(fid, wb, wa)
                        else:
                            found = plan.has_edges(
                                fid, np.minimum(wa, wb), np.maximum(wa, wb)
                            )
                        triangles += int(found.sum())
                        miss = np.nonzero(~found)[0]
                        if miss.size:
                            miss_by_slot = _group_misses(
                                wa[miss], wb[miss], wp[miss]
                            )
                # Queries and inlists go out in fragment vertex order —
                # the scalar send order.
                # Single-home queries accumulate into one batch per
                # contiguous run; the batch flushes before any scalar
                # send so the wire order (hence the qid sequence and the
                # in-flight state a checkpoint pickles) matches the scalar
                # loop exactly.
                home_of = plan.home_of()
                pend_a: List[np.ndarray] = []
                pend_b: List[np.ndarray] = []
                pend_p: List[np.ndarray] = []

                def flush_queries() -> None:
                    nonlocal next_qid
                    if not pend_a:
                        return
                    qa = np.concatenate(pend_a)
                    qb = np.concatenate(pend_b)
                    qp = np.concatenate(pend_p)
                    pend_a.clear()
                    pend_b.clear()
                    pend_p.clear()
                    qids = range(next_qid, next_qid + qa.size)
                    next_qid += qa.size
                    payloads = [
                        ("query", qid, a, b, fid)
                        for qid, a, b in zip(qids, qa.tolist(), qb.tolist())
                    ]
                    for qid in qids:
                        pending[qid] = [1, False]
                    _send_rows(
                        cluster,
                        fid,
                        home_of[qa],
                        20.0,
                        master_vertices=np.where(plan.border_mask[qp], qp, -1),
                        payloads=payloads,
                    )

                if miss_by_slot or (roles[nondummy] != ROLE_ECUT).any():
                    for slot in nondummy.tolist():
                        if roles[slot] == ROLE_ECUT:
                            entry = miss_by_slot.get(slot)
                            if entry is None:
                                continue
                            a_arr, b_arr = entry
                            homes = home_of[a_arr]
                            if (homes >= 0).all():
                                keep = homes != fid
                                if keep.any():
                                    pivot = np.int64(verts[slot])
                                    pend_a.append(a_arr[keep])
                                    pend_b.append(b_arr[keep])
                                    pend_p.append(
                                        np.full(
                                            int(keep.sum()), pivot, dtype=np.int64
                                        )
                                    )
                            else:
                                # v-cut closing endpoints need multi-target
                                # queries — scalar fallback, in order.
                                flush_queries()
                                pivot = int(verts[slot])
                                for a, b in zip(a_arr.tolist(), b_arr.tolist()):
                                    remote_check(fid, pivot, a, b)
                        else:
                            flush_queries()
                            v = int(verts[slot])
                            start = int(t.indptr[slot])
                            nbrs = t.nbrs[start : int(t.indptr[slot + 1])].tolist()
                            cluster.send(
                                fid,
                                partition.master(v),
                                ("inlist", v, nbrs),
                                nbytes=8.0 * max(1, len(nbrs)),
                                master_vertex=v,
                            )
                    flush_queries()
        else:
            for fragment in partition.fragments:
                fid = fragment.fid
                for v in sorted(fragment.vertices()):
                    role = partition.role(v, fid)
                    if role is NodeRole.DUMMY:
                        continue
                    local_nbrs = set(fragment.local_out_neighbors(v)) | set(
                        fragment.local_in_neighbors(v)
                    )
                    local_nbrs.discard(v)
                    cluster.charge(fid, max(1, len(local_nbrs)), vertex=v)
                    if role is NodeRole.ECUT:
                        process_pivot(fid, v, local_nbrs)
                    else:
                        master = partition.master(v)
                        cluster.send(
                            fid,
                            master,
                            ("inlist", v, sorted(local_nbrs)),
                            nbytes=8.0 * max(1, len(local_nbrs)),
                            master_vertex=v,
                        )

        if use_kernels:
            degs_arr = plan.degrees()
            kb = plan.key_base
            home_arr = plan.home_of()

            def send_queries_batch(
                fid: int, pivot: int, a_arr: np.ndarray, b_arr: np.ndarray
            ) -> None:
                """Batched ``remote_check`` for one pivot's missed wedges.

                Single-home closing endpoints go out through one
                ``send_batch`` (the wire/qid order is the scalar
                wedge order); any v-cut endpoint drops the whole pivot
                back to the scalar multi-target path, still in order.
                """
                nonlocal next_qid
                homes = home_arr[a_arr]
                if (homes >= 0).all():
                    keep = homes != fid
                    if not keep.any():
                        return
                    qa = a_arr[keep]
                    qb = b_arr[keep]
                    qids = range(next_qid, next_qid + qa.size)
                    next_qid += qa.size
                    payloads = [
                        ("query", qid, a, b, fid)
                        for qid, a, b in zip(qids, qa.tolist(), qb.tolist())
                    ]
                    for qid in qids:
                        pending[qid] = [1, False]
                    mv = pivot if partition.is_border(pivot) else -1
                    _send_rows(
                        cluster,
                        fid,
                        homes[keep],
                        20.0,
                        master_vertices=np.full(qa.size, mv, dtype=np.int64),
                        payloads=payloads,
                    )
                else:
                    for a, b in zip(a_arr.tolist(), b_arr.tolist()):
                        remote_check(fid, pivot, a, b)

            def process_pivot_kernel(
                fid: int, pivot: int, neighbors: Set[int]
            ) -> None:
                nonlocal triangles
                nbrs = np.fromiter(neighbors, dtype=np.int64, count=len(neighbors))
                okey = degs_arr[nbrs] * kb + nbrs
                above = okey > int(degs_arr[pivot]) * kb + pivot
                ordered = nbrs[above][np.argsort(okey[above])]
                k = ordered.size
                # = the scalar C(k,2) upfront charge + 1 per wedge.
                cluster.charge(fid, k * (k - 1), vertex=pivot)
                if k < 2:
                    return
                ii, jj = plan.triu_pairs(k)
                wa = ordered[ii]
                wb = ordered[jj]
                if graph.directed:
                    found = plan.has_edges(fid, wa, wb) | plan.has_edges(
                        fid, wb, wa
                    )
                else:
                    found = plan.has_edges(
                        fid, np.minimum(wa, wb), np.maximum(wa, wb)
                    )
                triangles += int(found.sum())
                miss = ~found
                if miss.any():
                    send_queries_batch(fid, pivot, wa[miss], wb[miss])

        # Pump supersteps until all queries/answers/list merges settle.
        merged: Dict[int, Set[int]] = {}
        merged_at: Dict[int, int] = {}
        inboxes = cluster.deliver()
        while any(inboxes.values()):
            # Merge v-cut neighbor lists that arrived this superstep.
            arrivals: Set[int] = set()
            for fid in range(cluster.num_workers):
                for msg in inboxes[fid]:
                    if msg[0] == "inlist":
                        _tag, v, nbrs = msg
                        merged.setdefault(v, set()).update(nbrs)
                        merged_at[v] = fid
                        arrivals.add(v)
            for v in sorted(arrivals):
                if use_kernels:
                    process_pivot_kernel(merged_at[v], v, merged.pop(v))
                else:
                    process_pivot(merged_at[v], v, merged.pop(v))
            for fid in range(cluster.num_workers):
                if use_kernels:
                    # Answers only mutate the pending table (no sends), so
                    # the queries batch into one existence test + one
                    # reply send_batch in inbox order — the scalar order.
                    queries = [m for m in inboxes[fid] if m[0] == "query"]
                    for msg in inboxes[fid]:
                        if msg[0] == "answer":
                            _tag, qid, found = msg
                            entry = pending[qid]
                            entry[0] -= 1
                            entry[1] = entry[1] or found
                            if entry[0] == 0:
                                if entry[1]:
                                    triangles += 1
                                del pending[qid]
                    if queries:
                        m = len(queries)
                        qa = np.fromiter((q[2] for q in queries), np.int64, m)
                        qb = np.fromiter((q[3] for q in queries), np.int64, m)
                        if graph.directed:
                            hit = plan.has_edges(fid, qa, qb) | plan.has_edges(
                                fid, qb, qa
                            )
                        else:
                            hit = plan.has_edges(
                                fid, np.minimum(qa, qb), np.maximum(qa, qb)
                            )
                        cluster.charge(fid, m)
                        _send_rows(
                            cluster,
                            fid,
                            np.fromiter((q[4] for q in queries), np.int64, m),
                            9.0,
                            payloads=[
                                ("answer", q[1], f)
                                for q, f in zip(queries, hit.tolist())
                            ],
                        )
                    continue
                for msg in inboxes[fid]:
                    tag = msg[0]
                    if tag == "query":
                        _tag, qid, a, b, reply_to = msg
                        found = local_has(fid, a, b)
                        cluster.charge(fid, 1)
                        cluster.send(fid, reply_to, ("answer", qid, found), nbytes=9.0)
                    elif tag == "answer":
                        _tag, qid, found = msg
                        entry = pending[qid]
                        entry[0] -= 1
                        entry[1] = entry[1] or found
                        if entry[0] == 0:
                            if entry[1]:
                                triangles += 1
                            del pending[qid]
            inboxes = cluster.deliver()

        profile = cluster.finish()
        return AlgorithmResult(values=triangles, profile=profile)
