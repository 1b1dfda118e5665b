"""Tests for run profiles and superstep records."""

import json

import pytest

from repro.runtime.costclock import CostClock
from repro.runtime.instrumentation import FailureEvent, RunProfile, SuperstepRecord


def test_superstep_record_maxima():
    record = SuperstepRecord(
        index=0,
        ops_by_worker={0: 5.0, 1: 9.0},
        bytes_by_worker={0: 2.0, 1: 1.0},
        time=1.0,
    )
    assert record.max_ops == 9.0
    assert record.max_bytes == 2.0


def test_superstep_record_empty_maxima():
    record = SuperstepRecord(index=0, ops_by_worker={}, bytes_by_worker={}, time=0.0)
    assert record.max_ops == 0.0
    assert record.max_bytes == 0.0


def test_profile_totals_and_worker_time():
    profile = RunProfile(
        num_workers=2,
        comp_ops_by_worker={0: 100.0, 1: 50.0},
        bytes_by_worker={0: 10.0},
    )
    assert profile.total_ops == 150.0
    assert profile.total_bytes == 10.0
    clock = CostClock(op_cost=1.0, byte_cost=2.0, superstep_latency=0.0)
    assert profile.worker_time(0, clock) == pytest.approx(120.0)
    assert profile.worker_time(1, clock) == pytest.approx(50.0)
    assert profile.worker_time(9, clock) == 0.0


def test_profile_summary_mentions_makespan():
    profile = RunProfile(num_workers=1, makespan=0.5)
    assert "ms" in profile.summary()
    assert profile.num_supersteps == 0


def _full_profile() -> RunProfile:
    """A profile exercising every serialized field, faults included."""
    crash = FailureEvent(
        kind="crash", worker=1, superstep=3, recovery_time=0.25, replayed_supersteps=2
    )
    step = SuperstepRecord(
        index=3,
        ops_by_worker={0: 5.0, 1: 9.5},
        bytes_by_worker={0: 2.0, 1: 1.25},
        time=0.125,
        failures=[crash],
        recovery_time=0.25,
        checkpoint_bytes=64.0,
    )
    return RunProfile(
        num_workers=2,
        comp_ops_by_copy={(7, 0): 3.0, (7, 1): 1.0, (12, 0): 2.5},
        comm_bytes_by_master={7: 16.0, 12: 8.0},
        comp_ops_by_worker={0: 100.0, 1: 50.0},
        bytes_by_worker={0: 10.0, 1: 14.0},
        supersteps=[step],
        makespan=0.5078125,
        failures=[crash],
        recovery_time=0.25,
        checkpoint_bytes=64.0,
    )


def test_profile_dict_round_trip_is_exact():
    profile = _full_profile()
    restored = RunProfile.from_dict(profile.to_dict())
    assert restored == profile


def test_profile_round_trip_survives_json():
    profile = _full_profile()
    payload = json.loads(json.dumps(profile.to_dict()))
    restored = RunProfile.from_dict(payload)
    assert restored == profile
    # Floats must replay bit-exactly, not approximately: the evaluation
    # engine's cache stores these payloads and warm runs print them.
    assert restored.makespan == profile.makespan
    assert restored.supersteps[0].ops_by_worker == profile.supersteps[0].ops_by_worker


def test_profile_round_trip_failure_and_recovery_fields():
    restored = RunProfile.from_dict(_full_profile().to_dict())
    assert restored.num_failures == 1
    event = restored.failures[0]
    assert (event.kind, event.worker, event.superstep) == ("crash", 1, 3)
    assert event.recovery_time == 0.25
    assert event.replayed_supersteps == 2
    assert restored.recovery_time == 0.25
    assert restored.checkpoint_bytes == 64.0
    assert restored.supersteps[0].failures == [event]


def test_profile_from_dict_defaults_optional_fault_fields():
    payload = _full_profile().to_dict()
    for key in ("failures", "recovery_time", "checkpoint_bytes"):
        payload.pop(key)
    payload["supersteps"][0].pop("failures")
    restored = RunProfile.from_dict(payload)
    assert restored.failures == []
    assert restored.recovery_time == 0.0
    assert restored.supersteps[0].failures == []


def test_profile_from_dict_ignores_retired_message_counts():
    """Cached profiles from before message drop/duplicate was retired
    carry two counts that no longer exist; they still load."""
    payload = _full_profile().to_dict()
    payload.update(messages_dropped=3, messages_duplicated=1)
    restored = RunProfile.from_dict(payload)
    assert restored == _full_profile()
    assert "messages_dropped" not in restored.to_dict()


def test_copy_keys_are_fragment_first():
    """``Cluster`` keys a copy ``(fid, vertex)``; the wire form is
    ``"fid,v"`` — ``"3,17"`` is fragment 3's copy of vertex 17 — and it
    reads back to the same key, whether charged scalar or in bulk."""
    from repro.graph.digraph import Graph
    from repro.partition.hybrid import HybridPartition
    from repro.runtime.bsp import Cluster

    partition = HybridPartition.from_vertex_assignment(Graph(20, []), [3] * 20, 4)
    for charge in (
        lambda c: c.charge(3, 2.0, vertex=17),
        lambda c: c.charge_bulk(3, [2.0], vertices=[17]),
    ):
        cluster = Cluster(partition)
        charge(cluster)
        profile = cluster.finish()
        assert profile.comp_ops_by_copy == {(3, 17): 2.0}
        payload = profile.to_dict()
        assert payload["comp_ops_by_copy"] == {"3,17": 2.0}
        restored = RunProfile.from_dict(json.loads(json.dumps(payload)))
        assert restored.comp_ops_by_copy == {(3, 17): 2.0}
        assert restored.to_dict() == payload
