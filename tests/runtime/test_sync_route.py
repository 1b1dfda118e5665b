"""Differential test: a compiled ``SyncRoute`` == the per-call array sync.

``sync_by_master_arrays`` used to re-derive its routing from the id sets
on every call (frozen in ``tests/oracles/master_sync.py``).  It is now
"compile a ``SyncRoute``, run it once", and PageRank keeps one route for
all its supersteps.  A route compiled once and run ``k`` times must leave
the cluster exactly where ``k`` per-call syncs left it: same arrays, same
``RunProfile``, same superstep count, same fate-stream draws.
"""

import numpy as np
import pytest

from repro.graph.generators import chung_lu_power_law
from repro.partition.hybrid import HybridPartition
from repro.partitioners.base import get_partitioner
from repro.runtime.bsp import Cluster
from repro.runtime.clusterspec import ClusterSpec
from repro.runtime.faults import FaultInjector, FaultPlan
from repro.runtime.plan import plan_for
from repro.runtime.sync import SyncRoute, sync_by_master_arrays
from tests.oracles.master_sync import sync_by_master_arrays as oracle_sync

ROUNDS = 4
FRAGMENTS = 5


class RecordingInjector(FaultInjector):
    """Keeps the argument list of every ``message_fate`` draw."""

    def __init__(self, plan):
        super().__init__(plan)
        self.draws = []

    def message_fate(self, superstep, src, dst):
        self.draws.append((superstep, src, dst))
        return super().message_fate(superstep, src, dst)


@pytest.fixture(scope="module")
def partition() -> HybridPartition:
    """Replicated vertices, single-host vertices, and an empty last fragment."""
    graph = chung_lu_power_law(240, 6.0, exponent=2.1, directed=True, seed=11)
    vcut = get_partitioner("hdrf").partition(graph, FRAGMENTS - 1)
    part = HybridPartition(graph, FRAGMENTS)
    part._bulk_load(
        (f.fid, tuple(f.vertices()), tuple(f.edges())) for f in vcut.fragments
    )
    assert part.fragments[FRAGMENTS - 1].num_vertices == 0
    assert any(part.is_border(v) for v in graph.vertices)
    assert any(not part.is_border(v) for v in graph.vertices)
    return part


def _id_sets(part, shape, rng):
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
            keep = verts[rng.random(verts.size) < 0.05] if fragment.fid != 1 else verts[:0]
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

CLUSTERS = {
    "plain": {},
    "faults": {"faults": FaultPlan(seed=5, drop_rate=0.2, duplicate_rate=0.15)},
    "hetero": {"spec": SKEWED},
    "checkpoints": {"checkpoint_interval": 2},
    "all": {
        "faults": FaultPlan(seed=9, drop_rate=0.1, duplicate_rate=0.1),
        "spec": SKEWED,
        "checkpoint_interval": 3,
    },
}


def _cluster(part, options):
    options = dict(options)
    injector = None
    if "faults" in options:
        injector = options["faults"] = RecordingInjector(options["faults"])
    cluster = Cluster(part, **options)
    cluster.set_snapshot(lambda: {"state": list(range(64))})
    return cluster, injector


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
    ids_by_fid = _id_sets(partition, kind, rng)
    rounds = [_values(ids_by_fid, kind, rng) for _ in range(ROUNDS)]
    plan = plan_for(partition)

    def per_call(sync):
        cluster, injector = _cluster(partition, options)
        outs = [
            sync(
                cluster,
                plan,
                {f: (ids_by_fid[f], vals[f]) for f in ids_by_fid},
                reduce=reduce,
                finalize=finalize,
            )
            for vals in rounds
        ]
        return outs, cluster.finish(), injector

    want, want_profile, want_injector = per_call(oracle_sync)
    wrapped, wrapped_profile, wrapped_injector = per_call(sync_by_master_arrays)

    cluster, injector = _cluster(partition, options)
    route = SyncRoute(plan, ids_by_fid, cluster.num_workers)
    got = [route.run(cluster, vals, reduce, finalize) for vals in rounds]
    profile = cluster.finish()

    for outs, prof, inj in ((got, profile, injector), (wrapped, wrapped_profile, wrapped_injector)):
        for g, w in zip(outs, want):
            _assert_same_outputs(g, w)
        assert prof.to_dict() == want_profile.to_dict()
        assert prof.num_supersteps == want_profile.num_supersteps == 2 * ROUNDS
        if want_injector is not None:
            assert inj.draws == want_injector.draws
            assert want_injector.draws, "the fault stream was never consulted"


def test_empty_route_still_consumes_two_supersteps(partition):
    plan = plan_for(partition)
    want_cluster, got_cluster = Cluster(partition), Cluster(partition)
    want = oracle_sync(want_cluster, plan, {}, reduce="min")
    got = SyncRoute(plan, {2: np.empty(0, dtype=np.int64)}, FRAGMENTS).run(
        got_cluster, {}, "min"
    )
    _assert_same_outputs(got, want)
    assert got_cluster.finish().to_dict() == want_cluster.finish().to_dict()


def test_unknown_reduce_rejected_before_any_send(partition):
    cluster = Cluster(partition)
    with pytest.raises(ValueError, match="unsupported reduce"):
        sync_by_master_arrays(cluster, plan_for(partition), {}, reduce="max")
    assert cluster.profile.num_supersteps == 0
