"""Tests for declarative fault plans."""

import pytest

from repro.graph.digraph import Graph
from repro.partition.hybrid import HybridPartition
from repro.runtime.bsp import Cluster
from repro.runtime.faults import (
    CrashFault,
    FaultPlan,
    PermanentLossFault,
    StragglerFault,
)


def _cluster(plan):
    partition = HybridPartition.from_vertex_assignment(
        Graph(6, [(0, 1), (2, 3), (4, 5)]), [0, 0, 1, 1, 2, 2], 3
    )
    return Cluster(partition, faults=plan)


def _crashes(plan, supersteps):
    """``(worker, superstep)`` of every crash a run of ``supersteps`` met."""
    cluster = _cluster(plan)
    for _ in range(supersteps):
        cluster.charge(0, 1.0)
        cluster.deliver()
    return [(e.worker, e.superstep) for e in cluster.finish().failures]


class TestPlanValidation:
    def test_empty_plan_is_empty(self):
        assert FaultPlan().is_empty

    def test_any_fault_makes_plan_nonempty(self):
        assert not FaultPlan(crashes=(CrashFault(0, 1),)).is_empty
        assert not FaultPlan(losses=(PermanentLossFault(0, 1),)).is_empty
        assert not FaultPlan(stragglers=(StragglerFault(0, 2.0),)).is_empty

    def test_crash_coordinates_validated(self):
        with pytest.raises(ValueError, match="worker"):
            CrashFault(worker=-1, superstep=0)
        with pytest.raises(ValueError, match="superstep"):
            CrashFault(worker=0, superstep=-2)

    def test_straggler_factor_validated(self):
        with pytest.raises(ValueError, match="factor"):
            StragglerFault(worker=0, factor=0.5)
        with pytest.raises(ValueError, match="factor"):
            StragglerFault(worker=0, factor=float("nan"))
        with pytest.raises(ValueError, match="factor"):
            StragglerFault(worker=0, factor=float("inf"))

    def test_straggler_window_validated(self):
        """An empty window never fires: a "faulty" run would be quietly clean."""
        with pytest.raises(ValueError, match="start must be >= 0"):
            StragglerFault(0, 2.0, start=-1)
        with pytest.raises(ValueError, match=r"window \[5, 3\) is empty"):
            StragglerFault(0, 2.0, start=5, until=3)
        with pytest.raises(ValueError, match=r"window \[2, 2\) is empty"):
            StragglerFault(0, 2.0, start=2, until=2)
        assert StragglerFault(0, 2.0, start=2, until=3).active(2)

    def test_plan_accepts_lists(self):
        plan = FaultPlan(crashes=[CrashFault(0, 1)], stragglers=[StragglerFault(1, 2.0)])
        assert isinstance(plan.crashes, tuple)
        assert isinstance(plan.stragglers, tuple)

    def test_crash_after_loss_rejected(self):
        """A lost worker never returns, so it cannot crash later."""
        loss, crash = PermanentLossFault(1, 1), CrashFault(1, 3)
        with pytest.raises(ValueError) as info:
            FaultPlan(losses=(loss,), crashes=(crash,))
        assert str(crash) in str(info.value) and str(loss) in str(info.value)

    def test_crash_up_to_the_loss_accepted(self):
        """Crashes fire before losses within a superstep, and other workers
        are unaffected."""
        FaultPlan(losses=(PermanentLossFault(1, 3),), crashes=(CrashFault(1, 3),))
        FaultPlan(losses=(PermanentLossFault(1, 3),), crashes=(CrashFault(1, 0),))
        FaultPlan(losses=(PermanentLossFault(1, 1),), crashes=(CrashFault(0, 5),))


class TestCrashes:
    def test_crash_fires_once(self):
        plan = FaultPlan(crashes=(CrashFault(worker=2, superstep=5),))
        assert _crashes(plan, 8) == [(2, 5)]
        assert _crashes(plan, 5) == []

    def test_multiple_crashes_same_step(self):
        plan = FaultPlan(crashes=(CrashFault(0, 1), CrashFault(1, 1)))
        assert _crashes(plan, 3) == [(0, 1), (1, 1)]


class TestStragglers:
    def test_factor_defaults_to_one(self):
        assert FaultPlan().straggler_factor(0, 0) == 1.0

    def test_factor_applies_to_window(self):
        plan = FaultPlan(stragglers=(StragglerFault(1, 3.0, start=2, until=4),))
        assert plan.straggler_factor(1, 1) == 1.0
        assert plan.straggler_factor(1, 2) == 3.0
        assert plan.straggler_factor(1, 3) == 3.0
        assert plan.straggler_factor(1, 4) == 1.0
        assert plan.straggler_factor(0, 2) == 1.0

    def test_factors_compose(self):
        plan = FaultPlan(
            stragglers=(StragglerFault(0, 2.0), StragglerFault(0, 1.5))
        )
        assert plan.straggler_factor(0, 7) == 3.0
