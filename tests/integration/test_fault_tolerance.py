"""End-to-end fault-tolerance guarantees across all five algorithms.

Two contracts from the issue's acceptance criteria:

* with fault injection disabled, the runtime's default path is
  bit-identical to a second fault-free run (zero-overhead default);
* under a fault plan (one crash + one 2× straggler, with
  checkpointing on) every algorithm's *results* equal
  its fault-free results, while the profile shows nonzero recovery time
  and checkpoint volume.
"""

import re

import pytest

from repro.algorithms.registry import ALGORITHM_NAMES, get_algorithm
from repro.cli import main
from repro.eval.harness import algorithm_params
from repro.graph.generators import chung_lu_power_law
from repro.graph.io import write_edge_list
from repro.partition.serialize import save_partition
from repro.partitioners.base import get_partitioner
from repro.runtime.faults import CrashFault, FaultPlan, StragglerFault

FAULT_PLAN = FaultPlan(
    crashes=(CrashFault(worker=1, superstep=1),),
    stragglers=(StragglerFault(worker=2, factor=2.0),),
)


@pytest.fixture(scope="module")
def partition():
    graph = chung_lu_power_law(300, 6.0, exponent=2.1, directed=True, seed=7)
    return get_partitioner("fennel").partition(graph, 4)


@pytest.mark.parametrize("name", ALGORITHM_NAMES)
def test_results_identical_under_seeded_fault_plan(partition, name):
    params = algorithm_params(name, "")
    clean = get_algorithm(name).run(partition, **params)
    faulty = (
        get_algorithm(name)
        .configure_faults(FAULT_PLAN, checkpoint_interval=1)
        .run(partition, **params)
    )
    assert faulty.values == clean.values
    profile = faulty.profile
    assert profile.num_failures == 1
    assert profile.recovery_time > 0.0
    assert profile.checkpoint_bytes > 0.0
    assert profile.makespan > clean.makespan
    crash = profile.failures[0]
    assert crash.kind == "crash"
    assert crash.worker == 1
    assert crash.superstep == 1


@pytest.mark.parametrize("name", ALGORITHM_NAMES)
def test_default_path_is_bit_identical(partition, name):
    params = algorithm_params(name, "")
    first = get_algorithm(name).run(partition, **params)
    second = get_algorithm(name).run(partition, **params)
    assert first.makespan == second.makespan  # bit-identical, no approx
    assert first.values == second.values
    assert first.profile.recovery_time == 0.0
    assert first.profile.checkpoint_bytes == 0.0
    assert first.profile.failures == []


def test_faulty_runs_are_reproducible(partition):
    runs = [
        get_algorithm("pr")
        .configure_faults(FAULT_PLAN, checkpoint_interval=2)
        .run(partition)
        for _ in range(2)
    ]
    assert runs[0].makespan == runs[1].makespan
    assert runs[0].profile.to_dict() == runs[1].profile.to_dict()
    assert runs[0].profile.recovery_time == runs[1].profile.recovery_time


def test_run_params_override_configured_faults(partition):
    algorithm = get_algorithm("wcc").configure_faults(FAULT_PLAN, 1)
    # Per-run params can switch faults back off entirely.
    result = algorithm.run(partition, faults=None, checkpoint_interval=0)
    assert result.profile.failures == []
    assert result.profile.checkpoint_bytes == 0.0


def test_cli_evaluate_reports_fault_columns(tmp_path, capsys):
    graph = chung_lu_power_law(200, 5.0, exponent=2.1, directed=True, seed=3)
    graph_file = tmp_path / "g.txt"
    part_file = tmp_path / "p.json"
    write_edge_list(graph, str(graph_file))
    save_partition(get_partitioner("fennel").partition(graph, 3), str(part_file))
    code = main(
        [
            "evaluate",
            "--graph", str(graph_file),
            "--partition", str(part_file),
            "--algorithms", "pr",
            "--crash", "1:1",
            "--straggler", "2:2.0",
            "--checkpoint-interval", "2",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "recovery ms" in out
    assert "ckpt bytes" in out


@pytest.mark.parametrize(
    "flags, match",
    [
        (["--lose", "1:1", "--crash", "1:3"], "after losing it"),
        (["--crash=-1:3"], "crash worker must be >= 0"),
        (["--straggler", "0:0.5"], "straggler factor"),
    ],
    ids=["crash-after-loss", "negative-worker", "factor-below-one"],
)
def test_cli_rejects_contradictory_fault_plan(flags, match, capsys):
    """A plan the runtime would misreport exits 2 with one error line,
    before any file is read."""
    with pytest.raises(SystemExit) as stop:
        main(["evaluate", "--graph", "g", "--partition", "p", *flags])
    assert stop.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert re.search(match, err)
