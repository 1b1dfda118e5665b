"""Contract tests of the pipeline benchmark at 1/20 scale.

    python3 -m pytest benchmarks/pipeline -q
"""

import hashlib
import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="ascii") as _handle:
    SPEC = json.load(_handle)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(out_dir, workload, trace, seed=1, hashseed="0"):
    """One CLI run through the declared command: its last line parsed, and all it printed."""
    command = SPEC["command"] + [
        "--workload", workload, "--seed", str(seed), "--seconds", "0.5",
        "--trace", str(trace), "--scale", "0.05",
        "--out", os.path.join(out_dir, f"{workload}-{trace}-{seed}-{hashseed}"),
    ]
    env = dict(os.environ, PYTHONHASHSEED=hashseed)
    done = subprocess.run(command, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1]), done.stdout


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Every CLI run the tests below compare, two at a time on the two cores."""
    out_dir = str(tmp_path_factory.mktemp("pipeline"))
    wanted = [(w, 0, 1, "0") for w in WORKLOADS]
    wanted += [(w, 1, 1, h) for w in WORKLOADS for h in ("0", "1")]
    wanted.append(("stream-maintain", 1, 2, "0"))
    with ThreadPoolExecutor(max_workers=2) as pool:
        results = list(pool.map(lambda args: _run(out_dir, *args), wanted))
    return dict(zip(wanted, results)), out_dir


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_output_schema_matches_benchmark_json(runs, workload, trace):
    result, printed = runs[0][(workload, trace, 1, "0")]
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        got = result["metrics"][metric["name"]]
        assert sorted(got) == ["unit", "value"]
        assert got["unit"] == metric["unit"]
        assert isinstance(got["value"], (int, float))
        if not trace:
            assert got["value"] > 0
    # every run, gated or traced, carries its noise gauge
    assert "\nbench.reps " in printed and "\nbench.rep_spread_pct " in printed


@pytest.mark.parametrize("workload", WORKLOADS)
def test_exact_metrics_repeat_across_runs_and_hash_seeds(runs, workload):
    from harness import EXACT_END_TO_END, EXACT_PER_LAYER

    results, out_dir = runs
    first = results[(workload, 1, 1, "0")][0]["metrics"]
    second = results[(workload, 1, 1, "1")][0]["metrics"]
    for name in EXACT_PER_LAYER:
        assert first[name]["value"] == second[name]["value"], name
    # the exact end-to-end metric: untraced run vs the traced run's record
    untraced = results[(workload, 0, 1, "0")][0]["metrics"][EXACT_END_TO_END]["value"]
    trace_file = os.path.join(out_dir, f"{workload}-1-1-1", f"trace-{workload}.json")
    with open(trace_file, encoding="ascii") as handle:
        assert json.load(handle)["counters"][EXACT_END_TO_END] == untraced


def test_seed_changes_the_inputs(runs):
    results, out_dir = runs

    def digest(seed):
        path = os.path.join(out_dir, f"stream-maintain-1-{seed}-0",
                            "stream-maintain-graph.txt")
        with open(path, "rb") as handle:
            return hashlib.sha256(handle.read()).hexdigest()

    assert digest(1) != digest(2)
    one = results[("stream-maintain", 1, 1, "0")][0]["metrics"]
    two = results[("stream-maintain", 1, 2, "0")][0]["metrics"]
    assert one["core.frontier_vertices"]["value"] != two["core.frontier_vertices"]["value"]


def test_missing_counter_is_told_apart_from_zero(runs):
    # ME2H keeps no cost_before / cost_after; no bulk pass has a frontier
    results, out_dir = runs
    result, printed = results[("road-batch-me2h", 1, 1, "0")]
    missing = [line.split()[0] for line in printed.splitlines()
               if line.split()[1:2] == ["missing"]]
    assert missing == ["core.cost_before", "core.cost_after", "core.frontier_vertices"]
    assert result["metrics"]["bench.counters_missing"]["value"] == len(missing)
    with open(os.path.join(out_dir, "road-batch-me2h-1-1-0",
                           "trace-road-batch-me2h.json"), encoding="ascii") as handle:
        counters = json.load(handle)["counters"]
    assert all(counters[name] is None for name in missing)
    assert counters["core.moves"] is not None


def test_corrupted_result_is_counted_as_a_failed_operation(tmp_path):
    from harness import Checks, Recorder
    from workloads import WORKLOADS as workloads, verify_outcome

    workload = workloads["powerlaw-ecut-pr"]
    rec = Recorder()
    inputs = workload.make_inputs(rec, 1, 0.05, str(tmp_path / "g"))
    outcome = workload.rep(rec, inputs)

    clean = Checks()
    verify_outcome(rec, clean, outcome, {})
    assert clean.attempted >= 2 and not clean.failures

    algorithm, params, values = outcome.results[0]
    vertex = next(iter(values))
    outcome.results[0] = (algorithm, params, {**values, vertex: values[vertex] + 1e-6})
    corrupted = Checks()
    verify_outcome(rec, corrupted, outcome, {})
    assert len(corrupted.failures) == 1
