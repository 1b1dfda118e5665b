"""Differential test: the array-native TC pump == the frozen kernel route.

The kernel route of ``repro.algorithms.triangles`` used to batch only the
single-home closing endpoints and drop to one ``partition.role`` /
``designated_home`` callback and one ``Cluster.send`` per target for every
v-cut endpoint (frozen in ``tests/oracles/tc_pump.py``).  It now expands
every missed wedge through ``FragmentPlan.query_targets`` and moves queries
and answers as columnar blocks.  Nothing a run can observe may move: the
count, the makespan, the ``RunProfile`` (charges, link bytes, crash
recovery) and the pickled checkpoint snapshots must equal both the frozen
route's and the scalar reference's
(``tests/oracles/scalar_runs.py``).
"""

import collections
from unittest import mock

import hypothesis.strategies as st
import numpy as np
from hypothesis import HealthCheck, given, settings

from repro.algorithms import triangles
from repro.algorithms.triangles import TriangleCounting
from repro.core.v2h import V2H
from repro.costmodel.library import builtin_cost_model
from repro.graph.digraph import Graph
from repro.graph.generators import chung_lu_power_law
from repro.partition.hybrid import HybridPartition
from repro.partitioners.base import get_partitioner
from repro.runtime.bsp import Cluster
from repro.runtime.checkpoint import CheckpointManager
from repro.runtime.clusterspec import ClusterSpec
from repro.runtime.faults import CrashFault, FaultPlan, StragglerFault
from repro.runtime.plan import plan_for
from tests.oracles.scalar_runs import ScalarTriangleCounting
from tests.oracles.tc_pump import TriangleCounting as FrozenTriangleCounting

SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

FAULTS = FaultPlan(
    crashes=(CrashFault(worker=1, superstep=1),),
    stragglers=(StragglerFault(worker=0, factor=2.0),),
)

ROUTES = {
    "pump": TriangleCounting,
    "frozen": FrozenTriangleCounting,
    "scalar": ScalarTriangleCounting,
}


def _skewed(k):
    """Slow worker 0, thin uplink on the last worker, one thin link."""
    return ClusterSpec(
        speeds=(0.25,) + (1.0,) * (k - 1),
        bandwidths=(1.0,) * (k - 1) + (0.5,),
        links=((0, 1, 0.25),),
    )


def _configs(k):
    """{clean, faults, skewed spec, all} x checkpoint interval {1, 2}."""
    for faulty in (False, True):
        for spec in (None, _skewed(k)):
            for interval in (1, 2):
                yield faulty, spec, interval


def _observe(route, partition, faulty, spec, interval):
    """Everything one TC run lets an observer see."""
    blobs = []
    take = CheckpointManager.take

    def recording_take(self, completed):
        checkpoint = take(self, completed)
        blobs.append(checkpoint.blob)
        return checkpoint

    with mock.patch.object(CheckpointManager, "take", recording_take):
        result = ROUTES[route]().run(
            partition,
            faults=FAULTS if faulty else None,
            cluster_spec=spec,
            checkpoint_interval=interval,
        )
    return {
        "values": result.values,
        "makespan": result.makespan,
        "profile": result.profile.to_dict(),
        "checkpoints": blobs,
    }


def assert_routes_agree(partition):
    for faulty, spec, interval in _configs(partition.num_fragments):
        pump = _observe("pump", partition, faulty, spec, interval)
        for reference in ("frozen", "scalar"):
            want = _observe(reference, partition, faulty, spec, interval)
            for what, value in want.items():
                assert pump[what] == value, (
                    f"{what} diverges from the {reference} route "
                    f"(faults={faulty}, skewed={spec is not None}, "
                    f"checkpoint_interval={interval})"
                )


@st.composite
def partitions(draw):
    """Self-loops, isolated vertices; v-/e-assignment builds and a V2H hybrid."""
    n = draw(st.integers(min_value=3, max_value=14))
    directed = draw(st.booleans())
    # Endpoints stay below ``hi`` so the tail of the id range is isolated.
    hi = draw(st.integers(min_value=2, max_value=n))
    edges = draw(
        st.lists(
            st.tuples(st.integers(0, hi - 1), st.integers(0, hi - 1)),
            max_size=4 * n,
        )
    )
    graph = Graph(n, edges, directed=directed)
    k = draw(st.sampled_from([2, 3, 7, 16, 24, 64]))
    fids = st.integers(0, k - 1)
    build = draw(st.sampled_from(["vertex", "edge", "hybrid"]))
    if build == "vertex":
        assignment = [draw(fids) for _ in range(n)]
        return HybridPartition.from_vertex_assignment(graph, assignment, k)
    edge_assignment = {e: draw(fids) for e in graph.edges()}
    partition = HybridPartition.from_edge_assignment(graph, edge_assignment, k)
    if build == "hybrid":
        partition = V2H(builtin_cost_model("tc")).refine(partition)
    return partition


@SETTINGS
@given(partitions())
def test_pump_matches_frozen_and_scalar_routes(partition):
    assert_routes_agree(partition)


def test_pump_matches_on_a_refined_vertex_cut():
    """The benchmark's line in small: hdrf -> V2H(tc), merged v-cut pivots."""
    graph = chung_lu_power_law(300, 8.0, exponent=2.1, directed=False, seed=5)
    partition = get_partitioner("hdrf").partition(graph, 16)
    partition = V2H(builtin_cost_model("tc")).refine(partition)
    # Snapshots with queries in flight, not just the final count.
    assert len(_observe("pump", partition, False, None, 1)["checkpoints"]) >= 3
    assert_routes_agree(partition)


def test_a_superstep_longer_than_one_stride_keeps_charges_and_checkpoints():
    """Streams are cut every ``STRIDE`` messages; the cuts move no charge."""
    graph = chung_lu_power_law(600, 8.0, exponent=2.1, directed=False, seed=5)
    partition = get_partitioner("hdrf").partition(graph, 8)
    partition = V2H(builtin_cost_model("tc")).refine(partition)
    messages = collections.Counter()
    send_batch = Cluster.send_batch

    def counting(self, src, dsts, *args, **kwargs):
        messages[self._step_index] += len(dsts)
        return send_batch(self, src, dsts, *args, **kwargs)

    config = (True, None, 1)
    with mock.patch.object(Cluster, "send_batch", counting):
        pump = _observe("pump", partition, *config)
    assert max(messages.values()) > triangles.STRIDE
    assert pump["profile"]["failures"] and len(pump["checkpoints"]) >= 3
    for reference in ("frozen", "scalar"):
        assert _observe(reference, partition, *config) == pump, reference


def test_targets_leave_in_ascending_fid_order():
    """Past 8 fragments ``placement()`` does not iterate sorted; the query
    targets still ascend (DESIGN §8.2), and the pump reads them so."""
    graph = chung_lu_power_law(200, 8.0, exponent=2.1, directed=False, seed=9)
    partition = get_partitioner("hdrf").partition(graph, 24)
    assert any(list(hosts) != sorted(hosts) for hosts in partition._placement.values())
    plan = plan_for(partition)
    targets = plan.query_targets()
    rows = np.split(targets.fids, targets.indptr[1:-1])
    assert all(np.array_equal(np.sort(row), row) for row in rows)

    config = (True, None, 1)
    assert _observe("pump", partition, *config) == _observe("frozen", partition, *config)
