"""Differential test: the plan's masked ``SyncRoute`` == the per-call array sync.

Until the route moved onto the plan's copy space, every SSSP / WCC
superstep re-derived its routing from the id sets it was handed (frozen
in ``tests/oracles/master_sync.py``).  One route per plan, run *k* times
with a different "sent" mask each round, must leave the cluster exactly
where *k* calls of that function left it: same arrays, same
``RunProfile`` (charges, link bytes, checkpoints, crash recovery), same
superstep count.  A fixed mask (PageRank) is selected once and run *k*
times.
"""

import numpy as np
import pytest

from repro.graph.generators import chung_lu_power_law
from repro.partition.hybrid import HybridPartition
from repro.partitioners.base import get_partitioner
from repro.runtime.bsp import Cluster
from repro.runtime.clusterspec import ClusterSpec
from repro.runtime.faults import CrashFault, FaultPlan, StragglerFault
from repro.runtime.plan import plan_for
from repro.runtime.sync import SyncRoute
from tests.oracles.master_sync import sync_by_master_arrays as oracle_sync
from tests.runtime.test_sync import route_sync

ROUNDS = 4
FRAGMENTS = 5


@pytest.fixture(scope="module")
def partition() -> HybridPartition:
    """Replicated vertices, single-host vertices, and an empty last fragment."""
    graph = chung_lu_power_law(240, 6.0, exponent=2.1, directed=True, seed=11)
    vcut = get_partitioner("hdrf").partition(graph, FRAGMENTS - 1)
    part = HybridPartition(graph, FRAGMENTS)
    events = []  # per fragment its vertices, then its edges
    for f in vcut.fragments:
        vertices = np.fromiter(f.vertices(), dtype=np.int64)
        src, dst = np.array(list(f.edges()), dtype=np.int64).reshape(-1, 2).T
        events.append(np.stack([np.full_like(vertices, f.fid), vertices, np.full_like(vertices, -1)]))
        events.append(np.stack([np.full_like(src, f.fid), src, dst]))
    part._bulk_load(np.concatenate(events, axis=1))
    assert part.fragments[FRAGMENTS - 1].num_vertices == 0
    assert any(part.is_border(v) for v in graph.vertices)
    assert any(not part.is_border(v) for v in graph.vertices)
    return part


def _id_sets(part, shape, rng, silent=False):
    """``{fid: ids}`` shaped like one kernel's partials (unsorted on purpose)."""
    sets = {}
    for fragment in part.fragments:
        verts = np.fromiter(fragment.vertices(), dtype=np.int64)
        if shape == "pr":  # most of every non-empty fragment
            keep = verts[rng.random(verts.size) < 0.8]
        elif shape == "wcc":  # every border copy plus a few improved ones
            border = np.array([part.is_border(int(v)) for v in verts], dtype=bool)
            keep = verts[border | (rng.random(verts.size) < 0.1)]
        else:  # sssp: a thin frontier, some fragments silent
            quiet = silent or fragment.fid == 1
            keep = verts[:0] if quiet else verts[rng.random(verts.size) < 0.05]
        keep = rng.permutation(keep)
        if shape == "sssp" and keep.size == 0:
            continue  # absent key, not an empty entry
        sets[fragment.fid] = keep
    return sets


def _values(ids_by_fid, shape, rng):
    if shape == "pr":
        return {f: rng.random(ids.size) for f, ids in ids_by_fid.items()}
    return {
        f: rng.integers(0, 50, ids.size).astype(np.float64)
        for f, ids in ids_by_fid.items()
    }


def _rounds(part, kind, rng):
    """``ROUNDS`` of ``{fid: (ids, values)}``: a new id set every round,
    except PageRank's, which is fixed; one SSSP round sends nothing."""
    fixed = _id_sets(part, kind, rng)
    rounds = []
    for k in range(ROUNDS):
        ids_by_fid = fixed if kind == "pr" else _id_sets(part, kind, rng, silent=k == 2)
        vals = _values(ids_by_fid, kind, rng)
        rounds.append({f: (ids_by_fid[f], vals[f]) for f in ids_by_fid})
    return rounds


def _copy_space(route, plan, partials, rng):
    """The mask and values a run hands the route; unsent copies hold noise."""
    sent = np.zeros(route.size, dtype=bool)
    values = rng.random(route.size) * 1e6
    for fid, (ids, vals) in partials.items():
        at = route.offsets[fid] + plan.slot_of(fid)[ids]
        sent[at] = True
        values[at] = vals
    return sent, values


SHAPES = {
    "pr": ("sum", lambda _ids, acc: 0.15 / 240 + 0.85 * acc),
    "wcc": ("min", None),
    "sssp": ("min", None),
    "sssp-finalize": ("min", lambda _ids, acc: acc + 1.0),
}

SKEWED = ClusterSpec(
    speeds=(1.0, 0.5, 2.0, 1.0, 0.25),
    bandwidths=(1.0, 1.0, 0.5, 2.0, 1.0),
    links=((0, 2, 0.125),),
)

# a crash in the first superstep (one send_batch and finish() reach it)
# and one later, and a straggler over the first three supersteps
FAULTS = FaultPlan(
    crashes=(CrashFault(1, 0), CrashFault(3, 5)),
    stragglers=(StragglerFault(2, 2.0, until=3),),
)

CLUSTERS = {
    "plain": {},
    "faults": {"faults": FAULTS},
    "hetero": {"spec": SKEWED},
    "checkpoints": {"checkpoint_interval": 2},
    "all": {
        "faults": FAULTS,
        "spec": SKEWED,
        "checkpoint_interval": 3,
    },
}


def _cluster(part, options):
    cluster = Cluster(part, **options)
    cluster.set_snapshot(lambda: {"state": list(range(64))})
    return cluster


def _assert_same_outputs(got, want):
    assert got.keys() == want.keys()
    for fid in want:
        for g, w in zip(got[fid], want[fid]):
            assert np.array_equal(g, w) and g.dtype == w.dtype


@pytest.mark.parametrize("options", CLUSTERS.values(), ids=CLUSTERS.keys())
@pytest.mark.parametrize("shape", SHAPES)
def test_route_run_k_times_equals_k_per_call_syncs(partition, shape, options):
    reduce, finalize = SHAPES[shape]
    kind = shape.split("-")[0]
    rng = np.random.default_rng(3)
    rounds = _rounds(partition, kind, rng)
    plan = plan_for(partition)

    cluster = _cluster(partition, options)
    want = [oracle_sync(cluster, plan, p, reduce=reduce, finalize=finalize) for p in rounds]
    want_profile = cluster.finish()

    cluster = _cluster(partition, options)
    route = SyncRoute.of(plan)
    assert SyncRoute.of(plan) is route, "one route per plan"
    masks = [_copy_space(route, plan, p, rng) for p in rounds]
    fixed = route.select(masks[0][0]) if kind == "pr" else None
    got = []
    for sent, values in masks:
        step = fixed if fixed is not None else route.select(sent)
        receivers, vals = route.run(cluster, step, values, reduce, finalize)
        fids = route.copy_fid[receivers]
        got.append({
            f: (route.copy_id[receivers[fids == f]], vals[fids == f])
            for f in range(FRAGMENTS)
        })
    profile = cluster.finish()

    for g, w in zip(got, want):
        _assert_same_outputs(g, w)
    assert profile.to_dict() == want_profile.to_dict()
    assert profile.num_supersteps == want_profile.num_supersteps == 2 * ROUNDS
    assert len(want_profile.failures) == (2 if "faults" in options else 0)


def test_empty_route_still_consumes_two_supersteps(partition):
    plan = plan_for(partition)
    want_cluster, got_cluster = Cluster(partition), Cluster(partition)
    want = oracle_sync(want_cluster, plan, {}, reduce="min")
    got = route_sync(got_cluster, plan, {2: (np.empty(0, dtype=np.int64), [])}, "min")
    _assert_same_outputs(got, want)
    assert got_cluster.finish().to_dict() == want_cluster.finish().to_dict()
    assert want_cluster.profile.num_supersteps == 2


def test_unknown_reduce_rejected_before_any_send(partition):
    cluster = Cluster(partition)
    route = SyncRoute.of(plan_for(partition))
    with pytest.raises(ValueError, match="unsupported reduce"):
        route.run(cluster, route.select(np.ones(route.size, dtype=bool)), np.zeros(route.size), "max")
    assert cluster.profile.num_supersteps == 0


@pytest.mark.parametrize("options", CLUSTERS.values(), ids=CLUSTERS.keys())
def test_multi_sender_send_batch_equals_the_per_sender_calls(partition, options):
    """One call with an array ``src`` accounts exactly like one call per
    run of equal senders, in order: link bytes, profile."""
    rng = np.random.default_rng(17)
    count = 400
    srcs = np.sort(rng.integers(0, FRAGMENTS, count))
    srcs[::7] = rng.integers(0, FRAGMENTS, srcs[::7].size)  # interleave some
    dsts = rng.integers(0, FRAGMENTS, count)
    nbytes = rng.integers(0, 4, count) * 4.0
    mv = np.where(rng.random(count) < 0.5, rng.integers(0, 240, count), -1)

    batched = _cluster(partition, options)
    batched.send_batch(srcs, dsts, nbytes, master_vertices=mv)
    split = _cluster(partition, options)
    cuts = np.flatnonzero(srcs[1:] != srcs[:-1]) + 1
    for run in np.split(np.arange(count), cuts):
        split.send_batch(int(srcs[run[0]]), dsts[run], nbytes[run], master_vertices=mv[run])
    assert len(cuts) > FRAGMENTS

    if "spec" in options:
        assert np.array_equal(batched._step_link_bytes, split._step_link_bytes)
        assert batched._step_link_bytes.any()
    profile = batched.finish()
    assert profile.to_dict() == split.finish().to_dict()
    assert len(profile.failures) == (1 if "faults" in options else 0)
