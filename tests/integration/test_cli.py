"""End-to-end tests for the command-line interface."""

import pytest

from repro.cli import main
from repro.eval import run_all
from repro.runtime.parallel import backend_default


@pytest.fixture()
def graph_file(tmp_path):
    path = tmp_path / "g.txt"
    rc = main(
        [
            "generate", "--kind", "powerlaw", "--vertices", "300",
            "--degree", "6", "--seed", "5", "--out", str(path),
        ]
    )
    assert rc == 0
    return path


def test_generate_writes_graph(graph_file, capsys):
    from repro.graph.io import read_edge_list

    graph = read_edge_list(graph_file)
    assert graph.num_vertices == 300
    assert graph.num_edges > 0


@pytest.mark.parametrize("kind", ["er", "grid", "smallworld", "rmat"])
def test_generate_other_kinds(kind, tmp_path):
    out = tmp_path / f"{kind}.txt"
    rc = main(
        ["generate", "--kind", kind, "--vertices", "100", "--out", str(out)]
    )
    assert rc == 0
    assert out.exists()


def test_partition_evaluate_metrics_pipeline(graph_file, tmp_path, capsys):
    part_file = tmp_path / "p.json"
    rc = main(
        [
            "partition", "--graph", str(graph_file), "--partitioner", "fennel",
            "--fragments", "3", "--out", str(part_file),
        ]
    )
    assert rc == 0
    assert part_file.exists()

    rc = main(
        [
            "evaluate", "--graph", str(graph_file),
            "--partition", str(part_file), "--algorithms", "pr,wcc",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "PR" in out and "WCC" in out and "simulated ms" in out

    rc = main(
        ["metrics", "--graph", str(graph_file), "--partition", str(part_file)]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "f_v" in out and "lambda_e" in out


def test_evaluate_sssp_without_a_source_vertex_is_a_one_line_error(tmp_path, capsys):
    """SSSP's default source 0 is not a vertex of an empty graph."""
    from repro.graph.digraph import Graph
    from repro.graph.io import write_edge_list

    graph_file, part_file = tmp_path / "empty.txt", tmp_path / "p.json"
    write_edge_list(Graph(0, [], directed=True), graph_file)
    assert main(
        [
            "partition", "--graph", str(graph_file), "--partitioner", "hash",
            "--fragments", "2", "--out", str(part_file),
        ]
    ) == 0
    capsys.readouterr()
    rc = main(
        [
            "evaluate", "--graph", str(graph_file),
            "--partition", str(part_file), "--algorithms", "sssp",
        ]
    )
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.err == "error: sssp source 0 is not a vertex (num_vertices=0)\n"
    assert captured.out == ""


@pytest.mark.parametrize(
    "command",
    [
        ["evaluate", "--graph", "g.txt", "--partition", "p.json"],
        ["sweep", "--quick", "--only", "exp6", "--no-cache"],
    ],
    ids=["evaluate", "sweep"],
)
def test_shm_workers_without_shm_backend_is_rejected(command, capsys):
    """The flag used to be dropped silently (the run stayed simulated)."""
    assert main(command + ["--shm-workers", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: --shm-workers requires --backend shm\n"
    assert captured.out == ""


@pytest.mark.parametrize("workers", ["0", "-3"])
@pytest.mark.parametrize(
    "entry, command",
    [
        (main, ["evaluate", "--graph", "g.txt", "--partition", "p.json"]),
        (main, ["sweep", "--quick", "--only", "exp6", "--no-cache"]),
        (run_all.main, ["--quick", "--only", "exp6", "--no-cache"]),
    ],
    ids=["evaluate", "sweep", "run_all"],
)
def test_shm_workers_must_be_a_positive_integer(entry, command, workers, capsys):
    """``0`` used to mean "auto" and a negative count one worker, silently."""
    rc = entry(command + ["--backend", "shm", f"--shm-workers={workers}"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.err == (
        f"error: shm_workers must be a positive integer, got {workers}\n"
    )
    assert captured.out == ""
    assert backend_default() == "simulated"


def test_sweep_takes_every_run_all_flag(capsys, tmp_path):
    """``sweep`` mounts run_all's parser instead of re-declaring a subset
    (run_all-only flags used to be ``unrecognized arguments``)."""
    rc = main(
        ["sweep", "--quick", "--only", "exp6", "--jobs", "1",
         "--cache-dir", str(tmp_path / "cache")]
    )
    assert rc == 0
    assert "Exp-6" in capsys.readouterr().out


@pytest.mark.slow
def test_partition_with_refinement(graph_file, tmp_path, capsys):
    part_file = tmp_path / "p.json"
    rc = main(
        [
            "partition", "--graph", str(graph_file), "--partitioner", "grid",
            "--fragments", "3", "--refine", "pr", "--out", str(part_file),
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "pr-driven refinement" in out


def test_partition_refine_wall_clock_budget_early_stops(graph_file, tmp_path, capsys):
    from repro.graph.io import read_edge_list
    from repro.partition.serialize import load_partition
    from repro.partition.validation import check_partition

    part_file = tmp_path / "p.json"
    rc = main(
        [
            "partition", "--graph", str(graph_file), "--partitioner", "fennel",
            "--fragments", "3", "--refine", "pr", "--max-refine-seconds", "1e-9",
            "--out", str(part_file),
        ]
    )
    assert rc == 0
    guard_line = next(
        line for line in capsys.readouterr().out.splitlines()
        if line.startswith("guard:")
    )
    assert "early-stopped" in guard_line
    assert "snapshots" in guard_line
    check_partition(load_partition(part_file, read_edge_list(graph_file)))


def _exit_status(argv):
    """``main``'s return value, or the status it exits with."""
    try:
        return main(argv)
    except SystemExit as stop:
        return stop.code


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["evaluate", "--graph", "g", "--partition", "p", "--crash", "nonsense"],
            "--crash expects WORKER:SUPERSTEP, got 'nonsense'",
        ),
        (
            [
                "evaluate", "--graph", "g", "--partition", "p",
                "--lose", "1:1", "--crash", "1:3",
            ],
            "after losing it",
        ),
        (
            [
                "partition", "--graph", "g", "--out", "p",
                "--cluster-spec", "no-such-spec.json",
            ],
            "no-such-spec.json",
        ),
        (
            [
                "partition", "--graph", "g", "--out", "p", "--refine", "pr",
                "--max-refine-seconds", "-1",
            ],
            "max_seconds",
        ),
    ],
    ids=["crash-nonsense", "crash-after-loss", "missing-cluster-spec", "negative-budget"],
)
def test_bad_argument_value_is_a_usage_error(argv, message, capsys):
    """Every bad argument value exits 2 with one ``error:`` line, as an
    argparse error and every other CLI usage error do, before any file
    named on the command line is read."""
    assert _exit_status(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1
    assert message in captured.err
    assert captured.out == ""


def test_max_refine_seconds_requires_refine(graph_file, tmp_path, capsys):
    rc = main(
        [
            "partition", "--graph", str(graph_file), "--max-refine-seconds", "1",
            "--out", str(tmp_path / "p.json"),
        ]
    )
    assert rc == 2
    assert "requires --refine" in capsys.readouterr().err


def test_refine_hybrid_baseline_rejected(graph_file, tmp_path, capsys):
    rc = main(
        [
            "partition", "--graph", str(graph_file), "--partitioner", "ginger",
            "--fragments", "3", "--refine", "pr",
            "--out", str(tmp_path / "p.json"),
        ]
    )
    assert rc == 2
    assert "cannot refine" in capsys.readouterr().err


def test_metrics_with_cost_model(graph_file, tmp_path, capsys):
    part_file = tmp_path / "p.json"
    main(
        [
            "partition", "--graph", str(graph_file), "--partitioner", "hash",
            "--fragments", "3", "--out", str(part_file),
        ]
    )
    rc = main(
        [
            "metrics", "--graph", str(graph_file), "--partition", str(part_file),
            "--cost-model", "wcc",
        ]
    )
    assert rc == 0
    assert "lambda_wcc" in capsys.readouterr().out


@pytest.fixture()
def mutation_file(graph_file, tmp_path):
    """A small batch valid for the generated graph: one delete, one insert."""
    edges = []
    for line in graph_file.read_text().splitlines():
        if line.startswith("#") or not line.strip():
            continue
        u, v = map(int, line.split())
        edges.append((u, v))
    present = edges[0]
    have = set(edges)
    missing = next(
        (u, v)
        for u in range(50)
        for v in range(50)
        if u != v and (u, v) not in have
    )
    path = tmp_path / "batch.txt"
    path.write_text(
        f"# maintenance batch\n- {present[0]} {present[1]}\n"
        f"+ {missing[0]} {missing[1]}\n305\n"
    )
    return path


def test_partition_apply_mutations(graph_file, mutation_file, tmp_path, capsys):
    part_file = tmp_path / "p.json"
    graph_out = tmp_path / "g2.txt"
    rc = main(
        [
            "partition", "--graph", str(graph_file), "--partitioner", "grid",
            "--fragments", "3", "--refine", "pr",
            "--apply-mutations", str(mutation_file),
            "--out-graph", str(graph_out), "--out", str(part_file),
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "incremental: 3 mutations" in out
    assert "dirty-region" in out
    assert "rescoring calls=" in out
    assert "mutation maintenance" in out
    assert part_file.exists()
    # The mutated graph loads back with the maintained partition, so the
    # rest of the pipeline keeps working on the updated deployment.
    rc = main(
        [
            "evaluate", "--graph", str(graph_out),
            "--partition", str(part_file), "--algorithms", "pr",
        ]
    )
    assert rc == 0


def test_out_graph_requires_apply_mutations(graph_file, tmp_path, capsys):
    rc = main(
        [
            "partition", "--graph", str(graph_file), "--partitioner", "grid",
            "--fragments", "3", "--out-graph", str(tmp_path / "g2.txt"),
            "--out", str(tmp_path / "p.json"),
        ]
    )
    assert rc == 2
    assert "--out-graph requires" in capsys.readouterr().err


def test_apply_mutations_bad_file(graph_file, tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("+ 0\n")
    rc = main(
        [
            "partition", "--graph", str(graph_file), "--partitioner", "grid",
            "--fragments", "3", "--apply-mutations", str(bad),
            "--out", str(tmp_path / "p.json"),
        ]
    )
    assert rc == 2
    assert "line 1" in capsys.readouterr().err

    rc = main(
        [
            "partition", "--graph", str(graph_file), "--partitioner", "grid",
            "--fragments", "3",
            "--apply-mutations", str(tmp_path / "missing.txt"),
            "--out", str(tmp_path / "p.json"),
        ]
    )
    assert rc == 2
