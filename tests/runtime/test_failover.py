"""Permanent worker-loss failover: promotion, re-placement, accounting.

Contracts from the issue:

* a ``PermanentLossFault`` never changes algorithm results — the run
  continues on N-1 workers bit-identical to a clean run, while the
  profile gains ``losses`` / ``promoted_masters`` / ``replaced_vertices``
  / ``failover_time`` and the makespan grows;
* the vectorized :class:`FailoverState` array pass agrees decision-for-
  decision with the ``ScalarFailoverState`` dict/set oracle
  (``tests/oracles/scalar_failover.py``),
  including across stacked losses;
* fault plans are validated when attached (out-of-range workers and
  all-workers-lost plans are rejected by name), and losing the last
  survivor raises at runtime.
"""

import pytest

from repro.algorithms.registry import get_algorithm
from repro.eval.harness import algorithm_params
from repro.graph.generators import chung_lu_power_law
from repro.partitioners.base import get_partitioner
from repro.runtime.failover import FailoverState
from repro.runtime.faults import (
    CrashFault,
    FaultPlan,
    PermanentLossFault,
    StragglerFault,
)
from repro.runtime.instrumentation import RunProfile
from repro.runtime.plan import plan_for
from tests.oracles.scalar_failover import ScalarFailoverState

LOSS_PLAN = FaultPlan(losses=(PermanentLossFault(worker=1, superstep=1),))


@pytest.fixture(scope="module")
def graph():
    return chung_lu_power_law(300, 6.0, exponent=2.1, directed=True, seed=7)


@pytest.fixture(scope="module")
def partition(graph):
    return get_partitioner("fennel").partition(graph, 4)


# ----------------------------------------------------------------------
# Plan validation
# ----------------------------------------------------------------------
def test_duplicate_loss_worker_rejected():
    with pytest.raises(ValueError, match="only be lost once"):
        FaultPlan(
            losses=(
                PermanentLossFault(worker=1, superstep=0),
                PermanentLossFault(worker=1, superstep=3),
            )
        )


def test_validate_names_out_of_range_crash():
    plan = FaultPlan(crashes=(CrashFault(worker=7, superstep=0),))
    with pytest.raises(ValueError, match="crashes worker 7"):
        plan.validate_for(4)


def test_validate_names_out_of_range_loss():
    plan = FaultPlan(losses=(PermanentLossFault(worker=4, superstep=0),))
    with pytest.raises(ValueError, match="loses worker 4"):
        plan.validate_for(4)


def test_validate_names_out_of_range_straggler():
    plan = FaultPlan(stragglers=(StragglerFault(worker=9, factor=2.0),))
    with pytest.raises(ValueError, match="slows worker 9"):
        plan.validate_for(4)


def test_validate_rejects_losing_every_worker():
    plan = FaultPlan(
        losses=(
            PermanentLossFault(worker=0, superstep=0),
            PermanentLossFault(worker=1, superstep=1),
        )
    )
    with pytest.raises(ValueError, match="survive"):
        plan.validate_for(2)
    plan.validate_for(3)  # one survivor left: fine


def test_attach_time_validation_raises_before_running(partition):
    plan = FaultPlan(losses=(PermanentLossFault(worker=11, superstep=0),))
    with pytest.raises(ValueError, match="loses worker 11"):
        get_algorithm("pr").configure_faults(plan).run(partition)


# ----------------------------------------------------------------------
# Degraded-mode execution
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", ["pr", "wcc", "sssp"])
def test_results_identical_after_permanent_loss(partition, name):
    params = algorithm_params(name, "")
    clean = get_algorithm(name).run(partition, **params)
    lossy = (
        get_algorithm(name).configure_faults(LOSS_PLAN).run(partition, **params)
    )
    assert lossy.values == clean.values
    profile = lossy.profile
    assert profile.losses == 1
    assert profile.promoted_masters > 0
    assert profile.failover_time > 0.0
    assert profile.makespan > clean.makespan
    event = profile.failures[0]
    assert event.kind == "loss"
    assert event.worker == 1
    assert event.superstep == 1
    assert event.promoted_masters == profile.promoted_masters
    assert event.replaced_vertices == profile.replaced_vertices


def test_loss_with_checkpointing_restores_from_checkpoint(partition):
    clean = get_algorithm("pr").run(partition)
    lossy = (
        get_algorithm("pr")
        .configure_faults(LOSS_PLAN, checkpoint_interval=1)
        .run(partition)
    )
    assert lossy.values == clean.values
    assert lossy.profile.losses == 1
    assert lossy.profile.checkpoint_bytes > 0.0
    assert lossy.profile.failover_time > 0.0


def test_stacked_losses_compose(partition):
    plan = FaultPlan(
        losses=(
            PermanentLossFault(worker=1, superstep=1),
            PermanentLossFault(worker=2, superstep=3),
        )
    )
    clean = get_algorithm("pr").run(partition)
    lossy = get_algorithm("pr").configure_faults(plan).run(partition)
    assert lossy.values == clean.values
    assert lossy.profile.losses == 2
    assert len(lossy.profile.failures) == 2
    assert lossy.profile.makespan > clean.makespan


def test_loss_combined_with_crash(partition):
    plan = FaultPlan(
        crashes=(CrashFault(worker=0, superstep=2),),
        losses=(PermanentLossFault(worker=3, superstep=4),),
    )
    clean = get_algorithm("wcc").run(partition)
    faulty = (
        get_algorithm("wcc")
        .configure_faults(plan, checkpoint_interval=2)
        .run(partition)
    )
    assert faulty.values == clean.values
    assert faulty.profile.num_failures == 2  # one crash + one loss
    assert faulty.profile.losses == 1


def test_losing_the_last_survivor_raises():
    graph = chung_lu_power_law(60, 4.0, exponent=2.1, directed=True, seed=3)
    partition = get_partitioner("fennel").partition(graph, 2)
    plan = FaultPlan(losses=(PermanentLossFault(worker=0, superstep=0),))
    plan2 = FaultPlan(
        losses=(
            PermanentLossFault(worker=0, superstep=0),
            PermanentLossFault(worker=1, superstep=2),
        )
    )
    # single loss of one of two workers is fine
    get_algorithm("pr").configure_faults(plan).run(partition)
    with pytest.raises(ValueError, match="survive"):
        get_algorithm("pr").configure_faults(plan2).run(partition)


def test_degraded_runs_are_reproducible(partition):
    runs = [
        get_algorithm("pr").configure_faults(LOSS_PLAN).run(partition)
        for _ in range(2)
    ]
    assert runs[0].makespan == runs[1].makespan
    assert runs[0].profile.failover_time == runs[1].profile.failover_time


# ----------------------------------------------------------------------
# Array pass vs scalar oracle
# ----------------------------------------------------------------------
@pytest.mark.parametrize("baseline", ["fennel", "dbh"])
def test_failover_state_matches_scalar_oracle(graph, baseline):
    partition = get_partitioner(baseline).partition(graph, 4)
    fast = FailoverState(plan_for(partition))
    slow = ScalarFailoverState(partition)
    for dead, survivors in ((1, [0, 2, 3]), (3, [0, 2])):
        a = fast.fail(dead, survivors)
        b = slow.fail(dead, survivors)
        assert a.same_as(b), f"divergence losing worker {dead} on {baseline}"
    # post-loss routing state must agree too, not just the decisions
    import numpy as np

    assert np.array_equal(
        fast.masters,
        np.asarray([slow.masters[v] for v in range(graph.num_vertices)]),
    )
    for v in range(graph.num_vertices):
        assert set(np.nonzero(fast.copies[v])[0].tolist()) == slow.placement[v]


def test_heir_shares_sum_to_one(graph):
    partition = get_partitioner("fennel").partition(graph, 4)
    decision = FailoverState(plan_for(partition)).fail(2, [0, 1, 3])
    assert decision.heir_shares
    assert abs(sum(decision.heir_shares.values()) - 1.0) < 1e-12
    assert all(fid in (0, 1, 3) for fid in decision.heir_shares)


# ----------------------------------------------------------------------
# Profile serialization
# ----------------------------------------------------------------------
def test_profile_roundtrips_failover_fields(partition):
    profile = (
        get_algorithm("pr").configure_faults(LOSS_PLAN).run(partition).profile
    )
    back = RunProfile.from_dict(profile.to_dict())
    assert back.losses == profile.losses == 1
    assert back.promoted_masters == profile.promoted_masters
    assert back.replaced_vertices == profile.replaced_vertices
    assert back.failover_time == profile.failover_time
    assert back.to_dict() == profile.to_dict()


def test_old_profile_payloads_still_load(partition):
    payload = get_algorithm("pr").run(partition).profile.to_dict()
    for key in ("losses", "promoted_masters", "replaced_vertices", "failover_time"):
        payload.pop(key, None)
    back = RunProfile.from_dict(payload)
    assert back.losses == 0
    assert back.failover_time == 0.0
