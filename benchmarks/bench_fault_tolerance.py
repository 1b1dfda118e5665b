"""Extension bench: the checkpoint-interval trade-off under worker crashes.

The classic fault-tolerance tension: frequent checkpoints tax every
superstep with snapshot bytes, while sparse checkpoints make each crash
replay more lost work.  This bench runs PageRank under a grid of
checkpoint intervals × crash counts on the simulated cluster and emits
the makespan-overhead curve (relative to the fault-free, unprotected
run) as JSON, the shape a deployment would use to pick an interval for
its observed failure rate.

Expected shape: with zero crashes overhead decreases monotonically as
the interval grows; with crashes, tight intervals win because recovery
replays fewer supersteps.
"""

import json

from repro.algorithms.registry import get_algorithm
from repro.eval.datasets import load_dataset
from repro.partitioners.base import get_partitioner
from repro.runtime.faults import CrashFault, FaultPlan

from benchmarks.conftest import run_once

# PageRank at 10 iterations runs exactly 20 supersteps (two per
# power-iteration sync); crash placements stay inside that window.
INTERVALS = (1, 2, 4, 8, 16)
CRASH_STEPS = {0: (), 1: (15,), 2: (9, 17)}


def test_checkpoint_interval_tradeoff(benchmark, print_section):
    graph = load_dataset("livejournal_like")
    partition = get_partitioner("fennel").partition(graph, 8)

    def run():
        baseline = get_algorithm("pr").run(partition).makespan
        curve = []
        for num_crashes, steps in CRASH_STEPS.items():
            plan = FaultPlan(
                crashes=tuple(CrashFault(worker=s % 8, superstep=s) for s in steps)
            )
            for interval in (0,) + INTERVALS:
                result = (
                    get_algorithm("pr")
                    .configure_faults(plan if steps else None, interval)
                    .run(partition)
                )
                profile = result.profile
                curve.append(
                    {
                        "checkpoint_interval": interval,
                        "crashes": num_crashes,
                        "makespan": result.makespan,
                        "overhead": result.makespan / baseline - 1.0,
                        "recovery_time": profile.recovery_time,
                        "checkpoint_bytes": profile.checkpoint_bytes,
                    }
                )
        return {"baseline_makespan": baseline, "curve": curve}

    result = run_once(benchmark, run)
    print_section(
        "Extension: makespan overhead vs checkpoint interval (PR, fennel, n=8)",
        json.dumps(result, indent=2),
    )

    by_key = {
        (p["crashes"], p["checkpoint_interval"]): p for p in result["curve"]
    }
    # No crashes: protection is pure overhead, shrinking as intervals grow.
    no_crash = [by_key[(0, i)]["overhead"] for i in INTERVALS]
    assert all(a >= b for a, b in zip(no_crash, no_crash[1:]))
    assert by_key[(0, 0)]["overhead"] == 0.0  # unprotected fault-free run
    # With crashes: tight checkpoints beat replaying the whole history.
    assert (
        by_key[(2, 1)]["recovery_time"] < by_key[(2, 0)]["recovery_time"]
    )
    # Every faulty cell actually recovered.
    assert all(
        p["recovery_time"] > 0 for p in result["curve"] if p["crashes"] > 0
    )
