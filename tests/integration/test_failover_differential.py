"""Failover differential suite: every algorithm, both cuts, both routes.

The full cross product the issue's CI job runs: 5 algorithms x
{edge-cut, vertex-cut} baselines x {transient crash, permanent loss} x
{shipped kernels, their scalar reference in
``tests/oracles/scalar_runs.py``}.  In every cell the faulty run's
results must be bit-identical to the clean run on the same route, and the
loss cells must show degraded-mode accounting (a promoted-master count
and a failover charge) with a strictly larger makespan.
"""

import pytest

from repro.algorithms.registry import ALGORITHM_NAMES
from repro.eval.harness import algorithm_params
from repro.graph.generators import chung_lu_power_law
from repro.partitioners.base import get_partitioner
from repro.runtime.faults import CrashFault, FaultPlan, PermanentLossFault
from tests.oracles.scalar_runs import ROUTES

CRASH_PLAN = FaultPlan(crashes=(CrashFault(worker=1, superstep=1),))
LOSS_PLAN = FaultPlan(losses=(PermanentLossFault(worker=1, superstep=1),))
PLANS = {"crash": CRASH_PLAN, "loss": LOSS_PLAN}

_CLEAN = {}


@pytest.fixture(scope="module")
def partitions():
    graph = chung_lu_power_law(200, 5.0, exponent=2.1, directed=True, seed=9)
    return {
        "edge": get_partitioner("fennel").partition(graph, 4),
        "vertex": get_partitioner("dbh").partition(graph, 4),
    }


def clean_run(partitions, name, cut, route):
    key = (name, cut, route)
    if key not in _CLEAN:
        params = algorithm_params(name, "")
        _CLEAN[key] = ROUTES[route](name, partitions[cut], **params)
    return _CLEAN[key]


@pytest.mark.parametrize("route", ["kernels", "scalar"])
@pytest.mark.parametrize("fault", ["crash", "loss"])
@pytest.mark.parametrize("cut", ["edge", "vertex"])
@pytest.mark.parametrize("name", ALGORITHM_NAMES)
def test_faulty_results_bit_identical(partitions, name, cut, fault, route):
    clean = clean_run(partitions, name, cut, route)
    params = algorithm_params(name, "")
    faulty = ROUTES[route](
        name, partitions[cut], faults=PLANS[fault], checkpoint_interval=2, **params
    )
    assert faulty.values == clean.values
    profile = faulty.profile
    assert profile.num_failures == 1
    assert profile.makespan > clean.makespan
    if fault == "loss":
        assert profile.losses == 1
        assert profile.promoted_masters > 0
        assert profile.failover_time > 0.0
    else:
        assert profile.losses == 0
        assert profile.recovery_time > 0.0


@pytest.mark.parametrize("cut", ["edge", "vertex"])
def test_kernel_and_scalar_paths_agree_after_loss(partitions, cut):
    """Degraded-mode accounting is route-independent, not just results."""
    kernels, scalar = (
        run("pr", partitions[cut], faults=LOSS_PLAN, checkpoint_interval=2)
        for run in (ROUTES["kernels"], ROUTES["scalar"])
    )
    assert kernels.values == scalar.values
    assert kernels.makespan == pytest.approx(scalar.makespan)
    assert kernels.profile.promoted_masters == scalar.profile.promoted_masters
    assert kernels.profile.replaced_vertices == scalar.profile.replaced_vertices
