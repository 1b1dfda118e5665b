"""Differential suite for heterogeneous-cluster support.

Two contracts lock the feature down:

* **Uniform bit-identity** — a cluster spec with every capacity exactly
  1.0 must be indistinguishable from passing no spec at all: identical
  refined partitions for all six refiners (E2H/V2H/ME2H/MV2H and their
  parallel drivers), identical refinement profiles, and identical
  makespans and ``RunProfile`` dicts for all five algorithms — for the
  shipped kernels and for their scalar reference
  (``tests/oracles/scalar_runs.py``), so the cross-check below compares
  against a reference that is itself spec-neutral.
* **Skewed path agreement** — with a genuinely skewed spec the kernels
  and the scalar reference must still agree bit-for-bit with each
  other: the heterogeneous accounting (per-worker speed division,
  per-link bandwidth division at the barrier) happens in the cluster
  both charge through.
"""

from __future__ import annotations

import pytest

from repro.core.e2h import E2H
from repro.core.me2h import ME2H
from repro.core.mv2h import MV2H
from repro.core.parallel import ParE2H, ParV2H
from repro.core.v2h import V2H
from repro.costmodel.library import builtin_cost_model
from repro.graph.generators import chung_lu_power_law
from repro.partition.serialize import partition_to_dict
from repro.partitioners.base import get_partitioner
from repro.runtime.clusterspec import ClusterSpec
from tests.oracles.scalar_runs import ROUTES

N = 4
ALGORITHMS = ("cn", "tc", "wcc", "pr", "sssp")
REFINERS = ("E2H", "V2H", "ME2H", "MV2H", "ParE2H", "ParV2H")

UNIFORM = ClusterSpec.uniform(N)
SKEWED = ClusterSpec(
    speeds=(0.25, 1.0, 1.0, 1.0),
    bandwidths=(1.0, 1.0, 1.0, 0.5),
    links=((1, 2, 0.25),),
)

#: small per-algorithm params so the runs stay fast
PARAMS = {"pr": {"iterations": 5}}


@pytest.fixture(scope="module")
def graph():
    return chung_lu_power_law(220, 5.0, exponent=2.1, directed=True, seed=3)


@pytest.fixture(scope="module")
def cuts(graph):
    return {
        "edge": get_partitioner("hash").partition(graph, N),
        "vertex": get_partitioner("dbh").partition(graph, N),
    }


def _refine(name: str, spec, cuts):
    """Run one refiner; returns (snapshot, profile-or-None, partitions)."""
    model = builtin_cost_model("pr")
    models = {a: builtin_cost_model(a) for a in ALGORITHMS}
    if name == "E2H":
        refined = E2H(model, cluster_spec=spec).refine(cuts["edge"])
    elif name == "V2H":
        refined = V2H(model, cluster_spec=spec).refine(cuts["vertex"])
    elif name == "ME2H":
        refined = ME2H(models, cluster_spec=spec).refine(cuts["edge"])
    elif name == "MV2H":
        refined = MV2H(models, cluster_spec=spec).refine(cuts["vertex"])
    elif name == "ParE2H":
        refined, profile = ParE2H(model, cluster_spec=spec).refine(cuts["edge"])
        return _snap(refined), profile, _views(refined)
    elif name == "ParV2H":
        refined, profile = ParV2H(model, cluster_spec=spec).refine(cuts["vertex"])
        return _snap(refined), profile, _views(refined)
    else:
        raise KeyError(name)
    return _snap(refined), None, _views(refined)


def _views(refined):
    """Per-algorithm run targets (composites expose one view per model)."""
    if hasattr(refined, "partition_for"):
        return {a: refined.partition_for(a) for a in ALGORITHMS}
    return {a: refined for a in ALGORITHMS}


def _snap(refined):
    if hasattr(refined, "partition_for"):
        return {
            a: partition_to_dict(refined.partition_for(a)) for a in ALGORITHMS
        }
    return partition_to_dict(refined)


@pytest.fixture(scope="module")
def refined(cuts):
    """Every refiner's output under each spec, computed once."""
    out = {}
    for name in REFINERS:
        for label, spec in (("none", None), ("uniform", UNIFORM), ("skewed", SKEWED)):
            out[name, label] = _refine(name, spec, cuts)
    return out


def _run(partition, algorithm, spec, route="kernels"):
    result = ROUTES[route](
        algorithm, partition, cluster_spec=spec, **PARAMS.get(algorithm, {})
    )
    return result.makespan, result.profile.to_dict(), result.values


# ----------------------------------------------------------------------
# Uniform spec == no spec, bit for bit
# ----------------------------------------------------------------------
@pytest.mark.parametrize("refiner", REFINERS)
def test_uniform_refinement_bit_identical(refined, refiner):
    snap_none, prof_none, _ = refined[refiner, "none"]
    snap_uni, prof_uni, _ = refined[refiner, "uniform"]
    assert snap_none == snap_uni
    if prof_none is not None:
        assert prof_none.total_time == prof_uni.total_time
        assert prof_none.phase_times == prof_uni.phase_times
        assert prof_none.phase_supersteps == prof_uni.phase_supersteps


@pytest.mark.parametrize("refiner", REFINERS)
def test_skewed_refinement_diverges(refined, refiner):
    """The skewed spec must actually change refinement decisions."""
    assert refined[refiner, "skewed"][0] != refined[refiner, "none"][0]


@pytest.mark.parametrize("route", ["kernels", "scalar"])
@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("refiner", REFINERS)
def test_uniform_run_bit_identical(refined, refiner, algorithm, route):
    partition = refined[refiner, "none"][2][algorithm]
    makespan_none, profile_none, values_none = _run(
        partition, algorithm, None, route
    )
    makespan_uni, profile_uni, values_uni = _run(
        partition, algorithm, UNIFORM, route
    )
    assert makespan_none == makespan_uni
    assert profile_none == profile_uni
    assert values_none == values_uni


# ----------------------------------------------------------------------
# Skewed spec: kernels and the scalar reference agree bit for bit
# ----------------------------------------------------------------------
@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("refiner", REFINERS)
def test_skewed_kernels_scalar_agree(refined, refiner, algorithm):
    partition = refined[refiner, "skewed"][2][algorithm]
    makespan_k, profile_k, values_k = _run(partition, algorithm, SKEWED)
    makespan_s, profile_s, values_s = _run(partition, algorithm, SKEWED, "scalar")
    assert makespan_k == makespan_s
    assert profile_k == profile_s
    assert values_k == values_s


def test_skewed_run_slower_than_uniform(refined):
    """Sanity: degrading a worker cannot speed up the same partition."""
    partition = refined["E2H", "none"][2]["pr"]
    uniform_ms, _p, _v = _run(partition, "pr", None)
    skewed_ms, _p, _v = _run(partition, "pr", SKEWED)
    assert skewed_ms > uniform_ms
