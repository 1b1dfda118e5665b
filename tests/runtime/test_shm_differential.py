"""Differential suite: shm execution backend vs. the in-process kernels.

The shared-memory backend runs fragment compute in real worker
processes over zero-copy views of the compiled
:class:`~repro.runtime.plan.FragmentPlan` arrays — but the simulated
:class:`~repro.runtime.costclock.CostClock` remains the sole metrics
source, so ``AlgorithmResult.values``, makespans, and every
:class:`RunProfile` field must stay *bit-identical* to the in-process
``simulated`` backend.  The grid asserts that across all five
algorithms x both cut types x {clean, faulty+checkpointed,
checkpoint-only, permanent worker loss}.

A second group property-tests shared-segment hygiene: no ``/dev/shm``
entry may outlive a run, including runs torn down by an injected
worker crash mid-dispatch.
"""

import os

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from repro.algorithms.registry import get_algorithm
from repro.graph.digraph import Graph
from repro.graph.generators import chung_lu_power_law
from repro.partition.hybrid import HybridPartition
from repro.runtime import parallel
from repro.runtime import shm as shm_mod
from repro.runtime.bsp import Cluster
from repro.runtime.faults import (
    CrashFault,
    FaultPlan,
    PermanentLossFault,
    StragglerFault,
)
from repro.runtime.parallel import (
    ShmWorkerError,
    backend_default,
    crash_next_dispatch,
    last_shm_stats,
    resolve_backend,
    set_backend_default,
    shm_available,
)
from repro.runtime.sync import SyncRoute

pytestmark = pytest.mark.skipif(
    not shm_available(),
    reason="POSIX shared-memory backend requires Linux",
)

ALGORITHMS = ("pr", "wcc", "sssp", "tc", "cn")

FAULT_PLAN = FaultPlan(
    crashes=(CrashFault(worker=1, superstep=1),),
    stragglers=(StragglerFault(worker=2, factor=2.0),),
)

LOSS_PLAN = FaultPlan(
    losses=(PermanentLossFault(worker=1, superstep=1),),
)

#: fault-free, faulty + checkpointed, checkpoint-only, permanent loss
CONFIGS = {
    "clean": {},
    "faulty": {"faults": FAULT_PLAN, "checkpoint_interval": 2},
    "checkpointed": {"checkpoint_interval": 2},
    "lost": {"faults": LOSS_PLAN, "checkpoint_interval": 2},
}

_PARTITIONS = {}


def _partition(directed, cut):
    """Build (and cache) the 4-fragment test partition for one cell."""
    key = (directed, cut)
    if key not in _PARTITIONS:
        graph = chung_lu_power_law(
            90, avg_degree=4.0, exponent=2.5, seed=3, directed=directed
        )
        rng = np.random.default_rng(7)
        if cut == "vertex":
            edges = list(graph.edges())
            assignment = {
                e: int(f)
                for e, f in zip(edges, rng.integers(0, 4, size=len(edges)))
            }
            part = HybridPartition.from_edge_assignment(graph, assignment, 4)
        else:
            assignment = rng.integers(0, 4, size=graph.num_vertices)
            part = HybridPartition.from_vertex_assignment(
                graph, assignment.tolist(), 4
            )
        _PARTITIONS[key] = part
    return _PARTITIONS[key]


def _shm_leftovers():
    try:
        return {f for f in os.listdir("/dev/shm") if f.startswith("rshm-")}
    except OSError:  # pragma: no cover - /dev/shm missing
        return set()


# ----------------------------------------------------------------------
# Bit-identity grid


@pytest.mark.parametrize("config_name", sorted(CONFIGS))
@pytest.mark.parametrize("cut", ["edge", "vertex"])
@pytest.mark.parametrize("directed", [True, False], ids=["directed", "undirected"])
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_shm_matches_simulated(algorithm, directed, cut, config_name):
    partition = _partition(directed, cut)
    config = CONFIGS[config_name]
    alg = get_algorithm(algorithm)
    sim = alg.run(partition, backend="simulated", **dict(config))
    shm = alg.run(partition, backend="shm", shm_workers=2, **dict(config))
    assert sim.values == shm.values
    assert sim.makespan == shm.makespan
    assert sim.profile.to_dict() == shm.profile.to_dict()
    assert not shm_mod.live_arena_names()


@pytest.mark.parametrize("cut", ["edge", "vertex"])
def test_sssp_frontier_without_bearing_out_edges(cut, monkeypatch):
    """The source starts active on every fragment that holds a copy of it;
    one of them has nothing to relax from — a dummy mirror on the edge cut,
    a bearing copy with only an in-edge on the vertex cut — and is left out
    of the first superstep by the one skip rule both backends share."""
    graph = Graph(4, [(0, 1), (1, 2), (2, 0), (2, 3)], directed=True)
    if cut == "edge":
        partition = HybridPartition.from_vertex_assignment(graph, [0, 0, 1, 1], 2)
    else:
        partition = HybridPartition.from_edge_assignment(
            graph, {(0, 1): 0, (1, 2): 0, (2, 0): 1, (2, 3): 1}, 2
        )
    assert sorted(partition.placement(0)) == [0, 1]
    dispatched = []
    real_map = Cluster.map

    def recording_map(self, kernel, tables, state, fids, args=()):
        dispatched.append(list(fids))
        return real_map(self, kernel, tables, state, fids, args)

    monkeypatch.setattr(Cluster, "map", recording_map)
    alg = get_algorithm("sssp")
    sim = alg.run(partition, backend="simulated")
    in_process, dispatched[:] = list(dispatched), []
    shm = alg.run(partition, backend="shm", shm_workers=2)
    assert in_process[0] == [0] and dispatched == in_process
    assert sim.values == shm.values == {0: 0.0, 1: 1.0, 2: 2.0, 3: 3.0}
    assert sim.makespan == shm.makespan
    assert sim.profile.to_dict() == shm.profile.to_dict()


def test_backend_default_process_wide():
    partition = _partition(True, "edge")
    baseline = get_algorithm("pr").run(partition, backend="simulated")
    previous = set_backend_default("shm", 2)
    try:
        assert backend_default() == "shm"
        via_default = get_algorithm("pr").run(partition)
        assert via_default.profile.to_dict() == baseline.profile.to_dict()
    finally:
        set_backend_default(*previous)
    assert backend_default() == "simulated"


def test_unknown_backend_rejected():
    with pytest.raises(ValueError, match="unknown backend"):
        get_algorithm("pr").run(_partition(True, "edge"), backend="mpi")
    with pytest.raises(ValueError):
        set_backend_default("mpi")


@pytest.mark.parametrize("workers", [0, -3, 1.5, True, "2"])
def test_shm_workers_must_be_a_positive_integer(workers):
    """``0`` used to mean "auto"; ``-3`` and ``1.5`` ran on one worker."""
    with pytest.raises(ValueError, match="shm_workers must be a positive integer"):
        resolve_backend("shm", workers)
    with pytest.raises(ValueError, match="shm_workers must be a positive integer"):
        get_algorithm("pr").run(_partition(True, "edge"), shm_workers=workers)
    with pytest.raises(ValueError, match="shm_workers must be a positive integer"):
        set_backend_default("shm", workers)
    assert backend_default() == "simulated"
    assert resolve_backend("shm", None)[1] >= 1


def test_wall_time_measured_but_never_serialized():
    partition = _partition(True, "edge")
    result = get_algorithm("pr").run(partition, backend="shm", shm_workers=2)
    profile = result.profile
    assert profile.wall_time_s > 0.0
    assert profile.wall_time_s == pytest.approx(
        sum(r.wall_time_s for r in profile.supersteps)
    )
    payload = profile.to_dict()
    assert "wall_time_s" not in payload
    assert all("wall_time_s" not in s for s in payload["supersteps"])


def test_last_shm_stats_exposes_dispatch_accounting():
    partition = _partition(True, "edge")
    get_algorithm("pr").run(partition, backend="shm", shm_workers=2)
    stats = last_shm_stats()
    assert stats is not None
    assert stats["num_workers"] == 2
    assert stats["dispatches"] > 0
    assert set(stats["seconds_by_worker"]) == {0, 1}
    assert all(s >= 0.0 for s in stats["seconds_by_fragment"].values())


# ----------------------------------------------------------------------
# Segment hygiene: nothing in /dev/shm outlives a run, even on a crash


def test_no_leaked_segments_across_grid():
    before = _shm_leftovers()
    partition = _partition(True, "vertex")
    for algorithm in ALGORITHMS:
        get_algorithm(algorithm).run(partition, backend="shm", shm_workers=2)
    assert shm_mod.live_arena_names() == []
    assert _shm_leftovers() == before


@settings(
    max_examples=5,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    algorithm=st.sampled_from(ALGORITHMS),
    workers=st.integers(1, 2),
    cut=st.sampled_from(["edge", "vertex"]),
)
def test_worker_crash_unwinds_without_leaks(algorithm, workers, cut):
    partition = _partition(True, cut)
    before = _shm_leftovers()
    crash_next_dispatch()
    with pytest.raises(ShmWorkerError):
        get_algorithm(algorithm).run(
            partition, backend="shm", shm_workers=workers
        )
    # The dying run unlinked its arena and condemned the pool ...
    assert shm_mod.live_arena_names() == []
    assert _shm_leftovers() == before
    # ... and a fresh pool serves the next run bit-identically.
    sim = get_algorithm(algorithm).run(partition, backend="simulated")
    shm = get_algorithm(algorithm).run(
        partition, backend="shm", shm_workers=workers
    )
    assert sim.profile.to_dict() == shm.profile.to_dict()
    assert _shm_leftovers() == before


@pytest.mark.parametrize("algorithm", ["wcc", "sssp"])
def test_exception_mid_run_unwinds_without_leaks(algorithm, monkeypatch):
    """Not a worker failure: the parent raises between two supersteps.  The
    arena used to stay linked, and the workers attached, until exit."""
    partition = _partition(True, "edge")
    before = _shm_leftovers()
    get_algorithm(algorithm).run(partition, backend="shm", shm_workers=2)
    pool = parallel._POOLS[2]

    def failing_sync(*_args, **_kwargs):
        assert len(shm_mod.live_arena_names()) == 1  # a superstep has run
        raise KeyError("sync failed")

    with monkeypatch.context() as patched:
        patched.setattr(SyncRoute, "run", failing_sync)
        with pytest.raises(KeyError, match="sync failed"):
            get_algorithm(algorithm).run(partition, backend="shm", shm_workers=2)
    assert shm_mod.live_arena_names() == []
    assert _shm_leftovers() == before
    # The pool was not at fault: the same workers serve the next run.
    sim = get_algorithm(algorithm).run(partition, backend="simulated")
    shm = get_algorithm(algorithm).run(partition, backend="shm", shm_workers=2)
    assert parallel._POOLS[2] is pool
    assert sim.values == shm.values
    assert sim.profile.to_dict() == shm.profile.to_dict()
    assert _shm_leftovers() == before


# ----------------------------------------------------------------------
# Arena unit behavior


def test_arena_builder_roundtrip_and_duplicate_key():
    builder = shm_mod.ArenaBuilder()
    a = np.arange(7, dtype=np.int64)
    b = np.linspace(0.0, 1.0, 5)
    builder.add("a", a)
    builder.add_zeros("z", (3,), np.float64)
    builder.add("b", b)
    with pytest.raises(ValueError, match="duplicate"):
        builder.add("a", a)
    builder.add("empty", np.empty(0, dtype=np.int8))
    arena = builder.seal()
    try:
        assert arena.name in shm_mod.live_arena_names()
        np.testing.assert_array_equal(arena.view("a"), a)
        np.testing.assert_array_equal(arena.view("b"), b)
        assert not arena.view("z").any()
        assert arena.view("empty").size == 0
        for key in ("a", "b", "z"):
            offset, _, _ = arena.manifest[key]
            assert offset % shm_mod.ALIGN == 0
        # Attach from the payload sees the same bytes (same process
        # here; workers do exactly this after unpickling the payload).
        twin = shm_mod.SharedArena.attach(arena.payload())
        try:
            np.testing.assert_array_equal(twin.view("a"), a)
            assert not twin.owner
        finally:
            twin.close()
    finally:
        arena.close(unlink=True)
        arena.close(unlink=True)  # idempotent
    assert arena.name not in shm_mod.live_arena_names()
