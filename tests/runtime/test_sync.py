"""Tests for master/mirror synchronization.

Every case runs the shipped exchange (the plan's ``SyncRoute``, fed and read
in ``{fid: (ids, values)}`` form by :func:`route_sync`) and, on twin
clusters, the two routes it replaced: the per-superstep array sync
(``tests/oracles/master_sync.py``) and the per-message dict exchange
(``tests/oracles/scalar_runs.sync_by_master``).  The delivered values and
the finished ``RunProfile`` must be identical before the case's own
assertion about what the exchange guarantees is made.
"""

import numpy as np
import pytest

from repro.graph.digraph import Graph
from repro.partition.hybrid import HybridPartition
from repro.runtime.bsp import Cluster
from repro.runtime.plan import plan_for
from repro.runtime.sync import VALUE_BYTES, SyncRoute
from tests.oracles.master_sync import sync_by_master_arrays
from tests.oracles.scalar_runs import sync_by_master

COMBINE = {"sum": lambda a, b: a + b, "min": min}


def route_sync(cluster, plan, partials, reduce="sum", value_bytes=12.0, finalize=None):
    """One sync of ``{fid: (ids, values)}`` over the plan's route, answered
    in the same form: ``{fid: (ids, values)}`` for every fragment."""
    route = (
        SyncRoute.of(plan)
        if value_bytes == VALUE_BYTES
        else SyncRoute(plan, value_bytes)
    )
    sent = np.zeros(route.size, dtype=bool)
    values = np.zeros(route.size)
    for fid, (ids, vals) in partials.items():
        at = route.offsets[fid] + plan.slot_of(fid)[np.asarray(ids, dtype=np.int64)]
        sent[at] = True
        values[at] = vals
    receivers, vals = route.run(cluster, route.select(sent), values, reduce, finalize)
    fids = route.copy_fid[receivers]
    return {
        f: (route.copy_id[receivers[fids == f]], vals[fids == f])
        for f in range(route.num_workers)
    }


def as_arrays(partials):
    """``{fid: {vertex: value}}`` -> ``{fid: (ids, values)}``."""
    return {
        fid: (
            np.fromiter(values, dtype=np.int64, count=len(values)),
            np.fromiter(values.values(), dtype=np.float64, count=len(values)),
        )
        for fid, values in partials.items()
    }


def as_dicts(synced):
    """``{fid: (ids, values)}`` -> ``{fid: {vertex: value}}``."""
    return {
        fid: dict(zip(ids.tolist(), values.tolist()))
        for fid, (ids, values) in synced.items()
    }


def sync(partition, partials, reduce, finalize=None, value_bytes=12.0):
    """One array sync of ``partials``; returns ``(values, finished profile)``.

    ``finalize`` takes ``(vertex or ids, combined)`` and must work on a
    scalar and on an array alike.
    """
    plan = plan_for(partition)
    cluster = Cluster(partition)
    out = as_dicts(
        route_sync(cluster, plan, as_arrays(partials), reduce, value_bytes, finalize)
    )
    frozen = Cluster(partition)
    assert out == as_dicts(
        sync_by_master_arrays(
            frozen,
            plan,
            as_arrays(partials),
            reduce,
            value_bytes=value_bytes,
            finalize=finalize,
        )
    )
    reference = Cluster(partition)
    assert out == sync_by_master(
        reference,
        partials,
        combine=COMBINE[reduce],
        value_bytes=lambda _value: value_bytes,
        finalize=finalize,
    )
    profile = cluster.finish()
    assert profile.to_dict() == frozen.finish().to_dict()
    assert profile.to_dict() == reference.finish().to_dict()
    return out, profile


@pytest.fixture()
def split():
    # Vertex 1 split across both fragments; masters at lowest fragment.
    g = Graph(3, [(0, 1), (1, 2)])
    return HybridPartition.from_edge_assignment(g, {(0, 1): 0, (1, 2): 1}, 2)


def test_combined_value_reaches_all_copies(split):
    out, _profile = sync(split, {0: {1: 5.0}, 1: {1: 7.0}}, "sum")
    assert out[0][1] == pytest.approx(12.0)
    assert out[1][1] == pytest.approx(12.0)


def test_finalize_applied_once(split):
    out, _profile = sync(
        split,
        {0: {1: 5.0}, 1: {1: 7.0}},
        "sum",
        finalize=lambda _v, total: total * 10,
    )
    assert out[0][1] == pytest.approx(120.0)


def test_single_copy_vertex_synced_locally(split):
    master = split.master(0)
    out, _profile = sync(split, {master: {0: 3.0}}, "min")
    assert out[master][0] == 3.0


def test_min_combiner(split):
    out, _profile = sync(split, {0: {1: 9.0}, 1: {1: 4.0}}, "min")
    assert out[0][1] == 4


def test_comm_attributed_to_border_masters(split):
    _out, profile = sync(split, {0: {1: 1.0}, 1: {1: 2.0}}, "min")
    assert profile.comm_bytes_by_master.get(1, 0) > 0
    # Vertex 0 is not replicated: no master traffic recorded.
    assert 0 not in profile.comm_bytes_by_master


def test_custom_value_bytes_estimator(split):
    partials = {0: {1: 1.0}, 1: {1: 2.0}}
    _out, default = sync(split, partials, "sum")
    _out, wide = sync(split, partials, "sum", value_bytes=24.0)
    # Every shipped value is charged at the caller's wire-size estimate.
    assert wide.comm_bytes_by_master[1] == 2 * default.comm_bytes_by_master[1] > 0


def test_two_supersteps_consumed(split):
    _out, profile = sync(split, {0: {1: 1.0}}, "min")
    assert profile.num_supersteps == 2


def test_combine_finalize_charged_at_recorded_master():
    # Three copies of vertex 1; master moved OFF the lowest fragment so a
    # "charge wherever the partial landed" bug would hit worker 0.
    g = Graph(4, [(0, 1), (1, 2), (1, 3)])
    p = HybridPartition.from_edge_assignment(
        g, {(0, 1): 0, (1, 2): 1, (1, 3): 2}, 3
    )
    p.set_master(1, 2)
    _out, profile = sync(
        p,
        {0: {1: 1.0}, 1: {1: 2.0}, 2: {1: 4.0}},
        "sum",
        finalize=lambda _v, total: total + 1.0,
    )
    # Two combine calls + one finalize, all at the recorded master.
    assert profile.comp_ops_by_worker == {2: 3.0}


def test_array_sync_bit_identical_to_scalar_with_moved_master():
    g = Graph(4, [(0, 1), (1, 2), (1, 3)])

    def build():
        p = HybridPartition.from_edge_assignment(
            g, {(0, 1): 0, (1, 2): 1, (1, 3): 2}, 3
        )
        p.set_master(1, 2)
        return p

    p_scalar = build()
    c_scalar = Cluster(p_scalar)
    out_scalar = sync_by_master(
        c_scalar,
        {0: {1: 1.0}, 1: {1: 2.0}, 2: {1: 4.0}},
        combine=lambda a, b: a + b,
        finalize=lambda _v, total: total + 1.0,
    )

    p_arrays = build()
    c_arrays = Cluster(p_arrays)
    out_arrays = route_sync(
        c_arrays,
        plan_for(p_arrays),
        {
            0: (np.array([1]), np.array([1.0])),
            1: (np.array([1]), np.array([2.0])),
            2: (np.array([1]), np.array([4.0])),
        },
        reduce="sum",
        finalize=lambda _ids, acc: acc + 1.0,
    )

    for fid in range(3):
        ids, vals = out_arrays[fid]
        assert dict(zip(ids.tolist(), vals.tolist())) == out_scalar[fid]
    # finish() folds the array path's bulk attribution accumulators.
    assert c_arrays.finish().to_dict() == c_scalar.finish().to_dict()
