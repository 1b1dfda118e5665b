"""Deterministic guard: a cold kernel run stays array-native (no wall clock).

Counts calls instead of timing them.  On a maintained partition (compile
-> mutate -> refine incrementally -> patch -> run) a cold PageRank kernel
run must not fall back to per-vertex / per-edge callbacks into
``HybridPartition``, must compile exactly one sync route per plan, and must sort
the edge-owner table once per ``target_aware`` flag per plan.  A triangle
count on a vertex cut must make no scalar look at the partition either
(its query targets come off the plan's placement CSR), no scalar
``Cluster.send``, move every message in a columnar
block and issue one ``send_batch`` per ``STRIDE`` messages of a superstep.
An in-process SSSP superstep must call its kernel once, over the whole
copy space, and a run whose profile nobody reads must never build the
per-copy and per-master ledger dicts.
"""

import collections
import random

import numpy as np
import pytest

from repro.algorithms import get_algorithm, triangles
from repro.core import E2H, V2H, MutationBatch, apply_mutations
from repro.costmodel import builtin_cost_model
from repro.graph.generators import chung_lu_power_law, road_grid
from repro.partition.hybrid import HybridPartition
from repro.partitioners.base import get_partitioner
from repro.runtime.bsp import Cluster
from repro.runtime.kernels import KERNELS
from repro.runtime.plan import FragmentPlan, plan_for, plan_stats
from repro.runtime.sync import SyncRoute

PARTITION_CALLBACKS = (
    "role",
    "designated_home",
    "cost_bearing",
    "vertex_fragments",
    "is_border",
    "placement",
)


@pytest.fixture()
def calls(monkeypatch):
    """Call counts of every scalar callback a cold run must not need."""
    counts = collections.Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in PARTITION_CALLBACKS:
        monkeypatch.setattr(
            HybridPartition, name, counted(name, getattr(HybridPartition, name))
        )
    monkeypatch.setattr(
        SyncRoute, "__init__", counted("route_compile", SyncRoute.__init__)
    )
    monkeypatch.setattr(
        FragmentPlan,
        "_edge_owner_table",
        counted("owner_sort", FragmentPlan._edge_owner_table),
    )
    return counts


def _batch(graph, seed):
    """8 deletes of present edges + 8 inserts of absent ones."""
    rng = random.Random(seed)
    present = sorted(graph.edges())
    lines = ["- %d %d" % e for e in rng.sample(present, 8)]
    index = set(present)
    while len(lines) < 16:
        edge = (rng.randrange(graph.num_vertices), rng.randrange(graph.num_vertices))
        if edge[0] != edge[1] and edge not in index:
            index.add(edge)
            lines.append("+ %d %d" % edge)
    return MutationBatch.parse("\n".join(lines))


def test_cold_pr_run_on_a_maintained_partition_is_array_native(calls):
    graph = chung_lu_power_law(2000, 8.0, exponent=2.1, directed=True, seed=4)
    part = get_partitioner("fennel").partition(graph, 8)
    refiner = E2H(builtin_cost_model("pr"))
    part = refiner.refine(part, in_place=True, capture_seed=True)
    pr = get_algorithm("pr")
    stats = plan_stats()

    # Compile and first cold run: nothing scalar at all.
    calls.clear()
    plan_for(part)
    first = pr.run(part)
    assert {name: calls[name] for name in PARTITION_CALLBACKS} == dict.fromkeys(
        PARTITION_CALLBACKS, 0
    )
    assert calls["route_compile"] == 1
    assert calls["owner_sort"] == 1

    # A warm re-run reuses the plan's owner table and its sync route.
    pr.run(part)
    assert calls["route_compile"] == 1
    assert calls["owner_sort"] == 1

    # Mutate -> patch across the graph version bump -> refine
    # incrementally -> patch: nothing recompiles, through the run below.
    recompiled = stats.recompiled
    dirty = apply_mutations(part, _batch(graph, 7))
    stale = plan_for(part)
    part = refiner.refine_incremental(part, dirty)
    delta = part.mutations_since(stale.generation)
    assert 0 < len(delta) < 500
    patched_before = stats.patched
    calls.clear()
    patched = plan_for(part, incremental=True)
    assert stats.patched == patched_before + 1, "the delta was not patched"
    # The patch may refresh home_of for the dirty vertices, nothing more.
    assert calls["designated_home"] <= len(delta)
    assert calls["role"] == calls["cost_bearing"] == calls["vertex_fragments"] == 0

    # Cold run on the patched plan: owner tables were dropped by the patch
    # and come back by one sort; still no scalar callback.
    calls.clear()
    second = pr.run(part)
    assert patched is plan_for(part)
    assert {name: calls[name] for name in PARTITION_CALLBACKS} == dict.fromkeys(
        PARTITION_CALLBACKS, 0
    )
    assert calls["route_compile"] == 1
    assert calls["owner_sort"] == 1
    assert first.values.keys() == second.values.keys()
    assert stats.recompiled == recompiled, "the maintenance lap recompiled a plan"

    # Both flags on one plan: one sort each, however often they are read.
    for _ in range(2):
        for fid in range(part.num_fragments):
            patched.owned_edges(fid, False)
            patched.owned_edges(fid, True)
    assert calls["owner_sort"] == 2


def test_tc_run_on_a_vertex_cut_is_array_native(calls, monkeypatch):
    graph = chung_lu_power_law(2000, 8.0, exponent=2.1, directed=False, seed=4)
    part = get_partitioner("hdrf").partition(graph, 8)
    part = V2H(builtin_cost_model("tc")).refine(part, in_place=True)
    tc = get_algorithm("tc")

    sent, batches, inboxed = [], collections.Counter(), []
    send, send_batch, deliver = Cluster.send, Cluster.send_batch, Cluster.deliver

    def recording_send(self, src, dst, payload, *args, **kwargs):
        sent.append(payload[0])
        return send(self, src, dst, payload, *args, **kwargs)

    def recording_send_batch(self, src, dsts, *args, **kwargs):
        batches[self._step_index, "calls"] += 1
        batches[self._step_index, "messages"] += len(dsts)
        return send_batch(self, src, dsts, *args, **kwargs)

    def recording_deliver(self):
        inboxes = deliver(self)
        inboxed.extend(m for inbox in inboxes.values() for m in inbox)
        return inboxes

    monkeypatch.setattr(Cluster, "send", recording_send)
    monkeypatch.setattr(Cluster, "send_batch", recording_send_batch)
    monkeypatch.setattr(Cluster, "deliver", recording_deliver)

    # The target table reads the plan's placement CSR, not the partition.
    plan = plan_for(part)
    vcut = int(((plan.home_of() < 0) & (plan.rep_count > 0)).sum())
    assert vcut > 500
    calls.clear()
    first = tc.run(part)
    assert {name: calls[name] for name in PARTITION_CALLBACKS} == dict.fromkeys(
        PARTITION_CALLBACKS, 0
    )

    # No scalar send: each superstep is one stream, cut every STRIDE
    # messages, plus one cut where superstep 2+ turns from the merged
    # pivots' queries to the answers.
    assert sent == []
    steps = sorted({step for step, _ in batches})
    assert len(steps) == 3
    for step in steps:
        cuts = -(-batches[step, "messages"] // triangles.STRIDE)
        assert batches[step, "calls"] <= cuts + 1, f"superstep {step}"
    # Every message sits in a (tag, senders, columns...) block; an inlist
    # block is its vertices plus a CSR into one flat neighbor column.
    assert {m[0] for m in inboxed} == {"inlist", "query", "answer"}
    assert all(isinstance(col, np.ndarray) for m in inboxed for col in m[1:3])
    assert sum(m[2].size for m in inboxed) > 50 * len(inboxed)
    for _, senders, vs, (indptr, nbrs) in (m for m in inboxed if m[0] == "inlist"):
        assert senders.size == vs.size == indptr.size - 1
        assert indptr[-1] == nbrs.size

    # A second run reuses the table.
    second = tc.run(part)
    assert {name: calls[name] for name in PARTITION_CALLBACKS} == dict.fromkeys(
        PARTITION_CALLBACKS, 0
    )
    assert first.values == second.values > 0


def test_sssp_superstep_is_one_kernel_call(monkeypatch):
    graph = road_grid(24, 24, seed=3)
    part = get_partitioner("fennel").partition(graph, 8)
    route = SyncRoute.of(plan_for(part))
    kernel = KERNELS["sssp"]
    spans, compute = [], kernel.compute

    def counted(tables, *args):
        spans.append(tables.bearing.size)
        return compute(tables, *args)

    monkeypatch.setattr(kernel, "compute", counted)
    sssp = get_algorithm("sssp")
    first = sssp.run(part, source=300)

    # One iteration is four supersteps (the sync's two, the vote's two)
    # and one kernel call over every copy, whatever the fragment count.
    assert len(spans) > 20
    assert first.profile.num_supersteps == 4 * len(spans)
    assert set(spans) == {route.size}

    # Nobody read the ledger, so it was never built; the first read
    # builds it, and it is the one an identical run builds.
    unread = vars(first.profile)
    assert "comp_ops_by_copy" not in unread and "comm_bytes_by_master" not in unread
    again = sssp.run(part, source=300).profile
    assert first.profile.to_dict() == again.to_dict()
    assert first.profile.comp_ops_by_copy and first.profile.comm_bytes_by_master
    assert "comp_ops_by_copy" in vars(first.profile)
    assert all(0 <= fid < 8 for fid, _ in first.profile.comp_ops_by_copy)
