"""Tests for the BSP cluster simulator."""

import numpy as np
import pytest

from repro.graph.digraph import Graph
from repro.partition.hybrid import HybridPartition
from repro.runtime.bsp import Cluster
from repro.runtime.costclock import CostClock
from repro.runtime.faults import CrashFault, FaultPlan, StragglerFault

CLOCK = CostClock(op_cost=1.0, byte_cost=1.0, superstep_latency=0.5)


def make_partition():
    g = Graph(4, [(0, 1), (2, 3)])
    return HybridPartition.from_vertex_assignment(g, [0, 0, 1, 1], 2)


def _listed(block):
    """A payload block with its columns as lists, for comparison."""
    tag, *cols = block
    return (tag, *(col.tolist() for col in cols))


@pytest.fixture()
def cluster():
    return Cluster(make_partition(), clock=CLOCK)


class TestCharging:
    def test_comp_charge_accumulates(self, cluster):
        cluster.charge(0, 5)
        cluster.charge(0, 3)
        cluster.finish()
        assert cluster.profile.comp_ops_by_worker[0] == 8

    def test_zero_and_negative_charges_ignored(self, cluster):
        cluster.charge(0, 0)
        cluster.charge(0, -5)
        assert cluster.profile.comp_ops_by_worker.get(0, 0) == 0

    def test_vertex_attribution(self, cluster):
        cluster.charge(1, 4, vertex=7)
        assert cluster.profile.comp_ops_by_copy[(1, 7)] == 4


class TestMessaging:
    def test_messages_delivered_next_superstep(self, cluster):
        cluster.send(0, 1, "hello", nbytes=5)
        inboxes = cluster.deliver()
        assert inboxes[1] == ["hello"]
        assert inboxes[0] == []

    def test_local_messages_free(self, cluster):
        cluster.send(0, 0, "self", nbytes=100)
        inboxes = cluster.deliver()
        assert inboxes[0] == ["self"]
        assert cluster.finish().bytes_by_worker.get(0, 0) == 0

    def test_remote_bytes_charged_both_ends(self, cluster):
        cluster.send(0, 1, "x", nbytes=10)
        cluster.finish()
        assert cluster.profile.bytes_by_worker[0] == 10
        assert cluster.profile.bytes_by_worker[1] == 10

    def test_master_vertex_attribution(self, cluster):
        cluster.send(0, 1, "sync", nbytes=12, master_vertex=3)
        cluster.deliver()
        assert cluster.profile.comm_bytes_by_master[3] == 12

    def test_batch_payloads_arrive_as_one_block_per_destination(self, cluster):
        cluster.send_batch(
            0, [1, 0, 1], 20.0, payloads=("query", [7, 8, 9], np.array([1.5, 2.5, 3.5]))
        )
        cluster.send_batch(0, [1], 20.0, payloads=("query", [10], [4.5]))
        inboxes = cluster.deliver()
        # (tag, senders, columns...), each column in send order.
        assert [_listed(m) for m in inboxes[1]] == [
            ("query", [0, 0], [7, 9], [1.5, 3.5]),
            ("query", [0], [10], [4.5]),
        ]
        assert [_listed(m) for m in inboxes[0]] == [("query", [0], [8], [2.5])]
        cluster.finish()
        assert cluster.profile.bytes_by_worker == {0: 60.0, 1: 60.0}

    def test_multi_sender_blocks_carry_the_sender_column(self):
        """One call from several workers: each block names every message's sender."""
        partition = HybridPartition.from_vertex_assignment(
            Graph(6, [(0, 1), (2, 3), (4, 5)]), [0, 0, 1, 1, 2, 2], 3
        )
        cluster = Cluster(partition, clock=CLOCK)
        cluster.send_batch([2, 0, 1, 2], [1, 1, 0, 1], 8.0, payloads=("t", [5, 6, 7, 8]))
        # A sender array that misses a destination still raises before
        # anything moves: nothing of this call reaches the inboxes below.
        with pytest.raises(ValueError, match="source workers"):
            cluster.send_batch([0, 1, 2], [1, 2], 8.0, payloads=("t", [5, 6]))
        inboxes = cluster.deliver()
        assert [_listed(m) for m in inboxes[1]] == [("t", [2, 0, 2], [5, 6, 8])]
        assert [_listed(m) for m in inboxes[0]] == [("t", [1], [7])]
        assert cluster.finish().bytes_by_worker == {0: 16.0, 1: 32.0, 2: 16.0}

    def test_post_enqueues_csr_rows_without_accounting(self, cluster):
        """A CSR column arrives sliced to each block's rows; nothing is charged."""
        indptr, flat = np.array([0, 2, 2, 5]), np.array([10, 11, 20, 21, 22])
        cluster.send_batch(
            [0, 1, 1], [1, 0, 1], 0.0, payloads=("inlist", [3, 4, 5], (indptr, flat))
        )
        inboxes = cluster.deliver()
        ((tag, senders, vs, (ptr, nbrs)),) = inboxes[1]
        assert (tag, senders.tolist(), vs.tolist()) == ("inlist", [0, 1], [3, 5])
        assert (ptr.tolist(), nbrs.tolist()) == ([0, 2, 5], [10, 11, 20, 21, 22])
        ((_, _, vs, (ptr, nbrs)),) = inboxes[0]
        assert (vs.tolist(), ptr.tolist(), nbrs.tolist()) == ([4], [0, 0], [])
        assert cluster.finish().bytes_by_worker == {}


class TestClock:
    def test_superstep_time_is_max_plus_latency(self, cluster):
        cluster.charge(0, 10)
        cluster.charge(1, 4)
        cluster.send(0, 1, "m", nbytes=3)
        cluster.deliver()
        # max ops 10 * 1.0 + max bytes 3 * 1.0 + latency 0.5
        assert cluster.profile.makespan == pytest.approx(13.5)

    def test_makespan_accumulates(self, cluster):
        cluster.charge(0, 1)
        cluster.deliver()
        cluster.charge(1, 2)
        cluster.deliver()
        assert cluster.profile.makespan == pytest.approx(1.5 + 2.5)
        assert cluster.profile.num_supersteps == 2

    def test_finish_flushes_pending(self, cluster):
        cluster.charge(0, 1)
        profile = cluster.finish()
        assert profile.num_supersteps == 1

    def test_finish_idempotent_when_clean(self, cluster):
        cluster.deliver()
        before = cluster.profile.num_supersteps
        cluster.finish()
        assert cluster.profile.num_supersteps == before


class TestProfile:
    def test_summary_string(self, cluster):
        cluster.charge(0, 3)
        cluster.deliver()
        text = cluster.profile.summary()
        assert "supersteps" in text

    def test_worker_time(self, cluster):
        cluster.charge(0, 10)
        cluster.send(0, 1, "m", nbytes=4)
        cluster.finish()
        clock = cluster.clock
        assert cluster.profile.worker_time(0, clock) == pytest.approx(14.0)


class TestValidation:
    def test_charge_rejects_out_of_range_worker(self, cluster):
        with pytest.raises(ValueError, match="out of range"):
            cluster.charge(2, 1)
        with pytest.raises(ValueError, match="out of range"):
            cluster.charge(-1, 1)

    def test_send_rejects_out_of_range_endpoints(self, cluster):
        with pytest.raises(ValueError, match="source"):
            cluster.send(5, 0, "m", nbytes=1)
        with pytest.raises(ValueError, match="destination"):
            cluster.send(0, 5, "m", nbytes=1)

    @pytest.mark.parametrize("column", [[7], [7, 8, 9], 7])
    def test_send_batch_rejects_misaligned_payload_columns(self, cluster, column):
        """A short column used to lose messages whose bytes were still charged."""
        with pytest.raises(ValueError, match="do not align with 2 destinations"):
            cluster.send_batch(0, [1, 1], 20.0, payloads=("query", [1, 2], column))
        assert cluster.deliver() == {0: [], 1: []}
        assert cluster.finish().bytes_by_worker == {}

    @pytest.mark.parametrize(
        "args, kwargs, match",
        [
            # Both blocks used to be enqueued before broadcast_to raised.
            ((0, [1, 2], [8.0, 8.0, 8.0]), {"payloads": ("t", [5, 6])}, "nbytes"),
            # 16 / 8 / 8 bytes used to be charged before the raise.
            ((0, [1, 2], 8.0), {"master_vertices": [3, 4, 5]}, "master_vertices"),
            (([0, 1, 2], [1, 2], 8.0), {}, "source workers"),
            (([0, 3], [1, 2], 8.0), {}, "source worker id 3"),
            ((0, [1, 2], 8.0), {"payloads": ("t", [5, 6, 7])}, "payload columns"),
        ],
        ids=["nbytes", "master_vertices", "src-shape", "src-range", "column"],
    )
    def test_rejected_send_batch_leaves_no_trace(self, args, kwargs, match):
        """Every argument is checked against ``dsts`` before anything moves."""
        partition = HybridPartition.from_vertex_assignment(
            Graph(6, [(0, 1), (2, 3), (4, 5)]), [0, 0, 1, 1, 2, 2], 3
        )
        cluster, untouched = Cluster(partition, clock=CLOCK), Cluster(partition, clock=CLOCK)
        with pytest.raises(ValueError, match=match):
            cluster.send_batch(*args, **kwargs)
        # Outbox, this superstep's ledger (its record), the run totals and
        # the attribution all as if the call had never been made.
        assert cluster.deliver() == untouched.deliver() == {0: [], 1: [], 2: []}
        assert cluster.finish().to_dict() == untouched.finish().to_dict()

    def test_empty_partition_rejected(self):
        class Fake:
            num_fragments = 0

        with pytest.raises(ValueError, match="at least one fragment"):
            Cluster(Fake())

    def test_crash_plan_must_name_existing_worker(self):
        plan = FaultPlan(crashes=(CrashFault(worker=9, superstep=0),))
        with pytest.raises(ValueError, match="only 2 workers"):
            Cluster(make_partition(), clock=CLOCK, faults=plan)


def faulty_cluster(plan, **kwargs):
    return Cluster(make_partition(), clock=CLOCK, faults=plan, **kwargs)


class TestFaultInjection:
    def test_empty_plan_keeps_default_path(self):
        cluster = faulty_cluster(FaultPlan())
        assert cluster.faults is None

    def test_local_messages_never_fault(self):
        """Under a fault plan a local message is still delivered for free."""
        plan = FaultPlan(stragglers=(StragglerFault(worker=0, factor=3.0),))
        cluster = faulty_cluster(plan)
        cluster.send(0, 0, "self", nbytes=100)
        inboxes = cluster.deliver()
        assert inboxes[0] == ["self"]
        assert cluster.finish().bytes_by_worker == {}

    def test_straggler_scales_superstep_time(self):
        plan = FaultPlan(stragglers=(StragglerFault(worker=1, factor=3.0),))
        cluster = faulty_cluster(plan)
        cluster.charge(0, 10)
        cluster.charge(1, 4)
        cluster.deliver()
        # worker 1's 4 ops stretch to 12, overtaking worker 0's 10
        assert cluster.profile.makespan == pytest.approx(12 * 1.0 + 0.5)

    def test_unit_straggler_matches_plain_path(self):
        plan = FaultPlan(stragglers=(StragglerFault(worker=1, factor=1.0),))
        faulty = faulty_cluster(plan)
        plain = Cluster(make_partition(), clock=CLOCK)
        for c in (faulty, plain):
            c.charge(0, 10)
            c.send(0, 1, "m", nbytes=3)
            c.deliver()
        assert faulty.profile.makespan == plain.profile.makespan


class TestCrashRecovery:
    def test_crash_without_checkpoint_replays_from_start(self):
        plan = FaultPlan(crashes=(CrashFault(worker=0, superstep=2),))
        cluster = faulty_cluster(plan)
        times = []
        for step in range(3):
            cluster.charge(0, 10 * (step + 1))
            cluster.deliver()
            times.append(cluster.profile.supersteps[step].time)
        record = cluster.profile.supersteps[2]
        crashed_step = 30 * 1.0 + 0.5
        # replay of steps 0 and 1 plus re-execution of the crashed step
        expected_recovery = times[0] + times[1] + crashed_step
        assert record.recovery_time == pytest.approx(expected_recovery)
        assert record.time == pytest.approx(crashed_step + expected_recovery)
        assert cluster.profile.recovery_time == pytest.approx(expected_recovery)
        assert [e.kind for e in cluster.profile.failures] == ["crash"]
        assert cluster.profile.failures[0].replayed_supersteps == 3

    def test_checkpoint_shortens_replay(self):
        state = {"x": list(range(100))}
        plan = FaultPlan(crashes=(CrashFault(worker=0, superstep=2),))
        cluster = faulty_cluster(
            plan, checkpoint_interval=2, snapshot=lambda: state
        )
        for _ in range(3):
            cluster.charge(0, 10)
            cluster.deliver()
        checkpoint = cluster.checkpoints.last
        assert checkpoint is not None and checkpoint.superstep == 2
        record = cluster.profile.supersteps[2]
        # restore bytes + re-execution of the crashed step only
        crashed_step = 10 * 1.0 + 0.5
        expected = checkpoint.nbytes * CLOCK.byte_cost + crashed_step
        assert record.recovery_time == pytest.approx(expected)
        assert cluster.profile.failures[0].replayed_supersteps == 1

    def test_checkpoint_bytes_charged_to_makespan(self):
        cluster = Cluster(
            make_partition(),
            clock=CLOCK,
            checkpoint_interval=1,
            snapshot=lambda: {"s": 1},
        )
        cluster.charge(0, 10)
        cluster.deliver()
        record = cluster.profile.supersteps[0]
        assert record.checkpoint_bytes > 0
        assert cluster.profile.checkpoint_bytes == record.checkpoint_bytes
        assert record.time == pytest.approx(
            10.5 + record.checkpoint_bytes * CLOCK.byte_cost
        )

    def test_crash_never_reached_is_not_charged(self):
        plan = FaultPlan(crashes=(CrashFault(worker=0, superstep=50),))
        cluster = faulty_cluster(plan)
        cluster.charge(0, 1)
        cluster.deliver()
        assert cluster.profile.recovery_time == 0.0
        assert cluster.profile.failures == []

    def test_set_snapshot_feeds_checkpoints(self):
        cluster = Cluster(make_partition(), clock=CLOCK, checkpoint_interval=1)
        cluster.set_snapshot(lambda: {"labels": [1, 2]})
        cluster.charge(0, 1)
        cluster.deliver()
        assert cluster.checkpoints.last.restore() == {"labels": [1, 2]}
