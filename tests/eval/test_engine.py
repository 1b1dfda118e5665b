"""Evaluation-engine tests: keys, cache, facade, executor, bit-identity.

The heavyweight guarantee — ``run_all --quick`` printing byte-identical
tables for ``--jobs 1``, ``--jobs 4`` and a warm-cache rerun — is
asserted by :func:`test_run_all_quick_tables_bit_identical` on a reduced
experiment subset sharing one cache workspace (the full-sweep version
runs in CI's pipeline-bench job).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from repro.cli import main as cli_main
from repro.costmodel.library import builtin_cost_model
from repro.eval import harness, run_all
from repro.eval.datasets import load_dataset
from repro.eval.engine import (
    ArtifactCache,
    EvalEngine,
    Planner,
    canonical_json,
    config_digest,
    model_payload,
    use_engine,
)
from repro.eval.engine.cells import CELLS
from repro.eval.engine.executor import execute

SRC = str(Path(__file__).resolve().parents[2] / "src")


# ----------------------------------------------------------------------
# Canonical keys
# ----------------------------------------------------------------------
def test_canonical_json_is_order_independent():
    a = canonical_json({"b": 1, "a": [1.5, {"y": 2, "x": 3}]})
    b = canonical_json({"a": [1.5, {"x": 3, "y": 2}], "b": 1})
    assert a == b
    assert " " not in a


def _key(kind, content, *spec_args, virtual=False):
    """Physical key through the cell table: build the spec, then key it."""
    row = CELLS[kind]
    return row.key(row.spec(*spec_args), content, virtual)


def test_config_digest_changes_with_any_param():
    base = _key("partition", "g0", "fennel", 4)
    assert _key("partition", "g1", "fennel", 4) != base
    assert _key("partition", "g0", "grid", 4) != base
    assert _key("partition", "g0", "fennel", 8) != base
    assert _key("partition", "g0", "fennel", 4, virtual=True) != base


M0, M1 = {"name": "m0"}, {"name": "m1"}


def test_refine_key_depends_on_model_and_kwargs():
    base = _key("refine", "c0", "pr", "edge", M0, {})
    assert _key("refine", "c0", "pr", "edge", M1, {}) != base
    assert _key("refine", "c0", "pr", "edge", M0, {"enable_esplit": False}) != base
    assert _key("refine", "c1", "pr", "edge", M0, {}) != base
    assert _key("refine", "c0", "wcc", "edge", M0, {}) != base


@pytest.fixture
def literal_model_hashes(monkeypatch):
    """The pins were computed with the model hashes ``"m0"`` / ``"m1"``."""
    from repro.eval.engine import cells

    real = cells.payload_digest
    monkeypatch.setattr(
        cells, "payload_digest", lambda p: p["name"] if p in (M0, M1) else real(p)
    )


@pytest.fixture
def literal_source_digest(monkeypatch):
    """The pins were computed with the source digest ``"src0"``, so they
    hold whatever the package's source is."""
    from repro.eval.engine import cells

    monkeypatch.setattr(cells, "source_digest", lambda: "src0")


SKEWED = {"speeds": [0.25, 1.0], "bandwidths": [1.0, 1.0]}
COMPOSITE_ARGS = ("edge", ["pr", "wcc"], {"pr": M0, "wcc": M1})
TABLE5_PARAMS = {"algorithms": ["pr", "cn"], "num_graphs": 3}


@pytest.mark.parametrize(
    "kind, content, spec_args, virtual, expected",
    [
        ("partition", "g0", ("fennel", 4), False,
         "67ff96db09647b8163f2c9b1944f6935b130c05a40c9056245d38fcea78a866a"),
        ("partition", "g0", ("fennel", 4), True,
         "7454bc25384509cdc9c199d6d0df9839697720c9600c69925deb81992bb4515f"),
        ("refine", "c0", ("pr", "edge", M0, {}), False,
         "ce725f920278f1c9479bba13378a2b874367e7e9b87dc3b12d32c1882cfadbfb"),
        ("refine", "c0", ("pr", "edge", M0, {"enable_esplit": False}), True,
         "c31cc5734e9a89cb53893cda2e1168658fc1cdf2f1ec72f54eef6075ebd39988"),
        ("run", "c0", ("pr", {"iterations": 10}), False,
         "ae3ea2e3c8f4edaa52d2b6d204b73799d2c268f41a2b558d0bd662a089a8b400"),
        ("composite", "c0", COMPOSITE_ARGS, False,
         "fac0ccd123b8ab2526dc001191fd1d22931045c39f62d5b670ee6b08b32ba1d5"),
        # the spec builder canonicalises the cluster spec (adds "links": {})
        ("composite", "c0", COMPOSITE_ARGS + (SKEWED,), False,
         "47cf7ef037649cfea35f0ad7921db8df94f57be5c78db43127dcd78ba6d58122"),
        ("memo", None, ("exp6_table5", TABLE5_PARAMS), False,
         "a265c694bae91d47215292aff1270e7fddbbe0f561fb2ae6167f24befdf6fdc2"),
    ],
    # Named ids: a re-pinned key keeps its test's name.
    ids=[
        "partition", "partition-virtual", "refine", "refine-kwargs-virtual",
        "run", "composite", "composite-cluster-spec", "memo",
    ],
)
def test_physical_keys_are_pinned(
    literal_model_hashes, literal_source_digest, kind, content, spec_args, virtual,
    expected,
):
    """Every kind's key is pinned, with the model hashes and the source
    digest fixed: a change to what a key holds is a deliberate edit here,
    not a side effect (a cache built by other code is cold by design)."""
    assert _key(kind, content, *spec_args, virtual=virtual) == expected


def test_composite_key_takes_a_cluster_spec_verbatim(
    literal_model_hashes, literal_source_digest
):
    spec = dict(CELLS["composite"].spec(*COMPOSITE_ARGS), cluster_spec=SKEWED)
    assert CELLS["composite"].key(spec, "c0", False) == (
        "469b2a8686be1f6a08c66fc0c4b3f7b31806a072e0df0bfa33641dc50863284b"
    )


@pytest.mark.parametrize("kind", sorted(CELLS))
def test_every_key_holds_the_source_digest(kind, monkeypatch):
    from repro.eval.engine import cells

    spec_args = {
        "partition": ("g0", ("fennel", 4)),
        "refine": ("c0", ("pr", "edge", M0, {})),
        "run": ("c0", ("pr", {"iterations": 10})),
        "composite": ("c0", COMPOSITE_ARGS),
        "memo": (None, ("exp6_table5", TABLE5_PARAMS)),
    }
    content, args = spec_args[kind]
    keys = set()
    for digest in ("src0", "src1"):
        monkeypatch.setattr(cells, "source_digest", lambda: digest)
        keys.add(_key(kind, content, *args))
    assert len(keys) == 2


def test_graph_digest_is_content_addressed():
    g1 = load_dataset("livejournal_like")
    g2 = load_dataset("livejournal_like")
    assert g1.digest() == g2.digest()
    assert g1.digest() != load_dataset("twitter_like").digest()


_KEY_SCRIPT = """
import json, sys
from repro.costmodel.library import builtin_cost_model
from repro.eval.datasets import load_dataset
from repro.eval.engine import config_digest, model_payload
from repro.eval.engine.cells import CELLS
def key(kind, content, *spec_args):
    return CELLS[kind].key(CELLS[kind].spec(*spec_args), content, False)
print(json.dumps({
    "config": config_digest("partition", graph="g", baseline="ne", n=4),
    "partition": key("partition", load_dataset("livejournal_like").digest(), "fennel", 2),
    "refine": key("refine", "c", "pr", "edge", model_payload(builtin_cost_model("pr")), {"enable_esplit": True}),
    "memo": key("memo", None, "exp6_table5", {"algorithms": ["pr", "cn"], "num_graphs": 3}),
}))
"""


@pytest.mark.slow
def test_cache_keys_stable_across_processes_and_hash_seeds():
    """Keys are pure content hashes: PYTHONHASHSEED and process identity
    must not leak in (otherwise worker processes would never share cells)."""
    outputs = []
    for seed in ("0", "1", "12345"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=SRC)
        result = subprocess.run(
            [sys.executable, "-c", _KEY_SCRIPT],
            capture_output=True, text=True, env=env, check=True,
        )
        outputs.append(json.loads(result.stdout))
    assert outputs[0] == outputs[1] == outputs[2]
    # and the in-process keys agree with the subprocess ones
    assert outputs[0]["config"] == config_digest(
        "partition", graph="g", baseline="ne", n=4
    )
    assert outputs[0]["refine"] == _key(
        "refine", "c", "pr", "edge", model_payload(builtin_cost_model("pr")),
        {"enable_esplit": True},
    )


# ----------------------------------------------------------------------
# Artifact cache
# ----------------------------------------------------------------------
def test_artifact_cache_round_trip_and_stats(tmp_path):
    cache = ArtifactCache(tmp_path)
    key = "ab" + "0" * 62
    assert cache.get(key) is None
    assert cache.stats.hits == 0
    cache.count_miss()
    cache.put(key, {"x": [1, 2.5], "y": "z"})
    assert cache.stats.bytes_written > 0
    assert cache.get(key) == {"x": [1, 2.5], "y": "z"}
    assert key in cache
    # a second cache over the same root reads it from disk
    other = ArtifactCache(tmp_path)
    assert other.get(key) == {"x": [1, 2.5], "y": "z"}
    assert other.stats.bytes_read > 0
    assert (cache.stats.hits, cache.stats.misses) == (1, 1)


def test_artifact_cache_memory_lru_bounded(tmp_path):
    cache = ArtifactCache(tmp_path, memory_entries=2)
    for i in range(4):
        cache.put(f"k{i}" + "0" * 62, {"i": i})
    assert len(cache._memory) == 2
    # evicted entries still load from disk
    assert cache.get("k0" + "0" * 62) == {"i": 0}


def test_cache_stats_delta(tmp_path):
    cache = ArtifactCache(tmp_path)
    cache.put("aa" + "0" * 62, {"v": 1})
    before = cache.stats.snapshot()
    cache.get("aa" + "0" * 62)
    delta = cache.stats.delta(before)
    assert (delta.hits, delta.misses) == (1, 0)
    assert delta.bytes_written == 0


# ----------------------------------------------------------------------
# Engine facade
# ----------------------------------------------------------------------
@pytest.fixture
def small_graph():
    return load_dataset("livejournal_like")


def test_passthrough_engine_has_no_cache_counters(small_graph):
    engine = EvalEngine()
    partition, seconds = engine.initial_partition(small_graph, "fennel", 2)
    assert partition.num_fragments == 2
    assert seconds > 0
    assert engine.stats.hits == engine.stats.misses == 0
    with pytest.raises(ValueError):
        engine.warm(Planner().graph)


@pytest.mark.slow
def test_cached_engine_matches_passthrough_and_replays(tmp_path, small_graph):
    model = builtin_cost_model("pr")
    passthrough = EvalEngine()
    p0, _s = passthrough.initial_partition(small_graph, "fennel", 2)
    r0, prof0 = passthrough.refine_partition(p0, "pr", "edge", model)
    mk0 = passthrough.run_algorithm(r0, "pr", {"iterations": 10})

    cached = EvalEngine(cache=ArtifactCache(tmp_path))
    p1, _s1 = cached.initial_partition(small_graph, "fennel", 2)
    r1, prof1 = cached.refine_partition(p1, "pr", "edge", model)
    mk1 = cached.run_algorithm(r1, "pr", {"iterations": 10})
    assert mk1 == mk0
    assert prof1.total_time == prof0.total_time

    # Warm pass: same objects reload from disk, wall-clock fields replay.
    p2, s2 = cached.initial_partition(small_graph, "fennel", 2)
    r2, prof2 = cached.refine_partition(p2, "pr", "edge", model)
    mk2 = cached.run_algorithm(r2, "pr", {"iterations": 10})
    assert mk2 == mk1
    assert prof2.wall_seconds == prof1.wall_seconds
    delta_misses = cached.stats.misses
    assert delta_misses == 3  # only the cold pass computed


@pytest.mark.slow
def test_cached_composite_matches_passthrough(tmp_path, small_graph):
    models = {name: builtin_cost_model(name) for name in ("pr", "wcc")}
    passthrough = EvalEngine()
    p0, _ = passthrough.initial_partition(small_graph, "grid", 2)
    c0, prof0 = passthrough.composite_refine(p0, "vertex", ("pr", "wcc"), models)

    cached = EvalEngine(cache=ArtifactCache(tmp_path))
    p1, _ = cached.initial_partition(small_graph, "grid", 2)
    c1, prof1 = cached.composite_refine(p1, "vertex", ("pr", "wcc"), models)
    assert prof1.total_time == prof0.total_time
    assert c1.space_saving() == c0.space_saving()
    assert c1.composite_replication_ratio() == c0.composite_replication_ratio()
    mk0 = passthrough.run_algorithm(c0.partition_for("pr"), "pr", {"iterations": 10})
    mk1 = cached.run_algorithm(c1.partition_for("pr"), "pr", {"iterations": 10})
    assert mk1 == mk0


def test_memo_cell_whitelist(tmp_path):
    engine = EvalEngine(cache=ArtifactCache(tmp_path))
    with pytest.raises(KeyError):
        engine.memo("not_a_registered_memo", {})


def test_use_engine_swaps_and_restores(tmp_path):
    from repro.eval.engine import get_engine

    default = get_engine()
    replacement = EvalEngine(cache=ArtifactCache(tmp_path))
    with use_engine(replacement):
        assert get_engine() is replacement
    assert get_engine() is default


# ----------------------------------------------------------------------
# Planner / executor
# ----------------------------------------------------------------------
BATCH = ("pr", "wcc")


def _tiny_cells(source) -> None:
    """One cell of every kind, plus a run over one view of the composite."""
    part = source.partition("livejournal_like", "fennel", 2)
    refined = source.refine("livejournal_like", "fennel", 2, "pr", "edge")
    source.run("livejournal_like", "pr", part, {"iterations": 10})
    source.run("livejournal_like", "pr", refined, {"iterations": 10})
    composite = source.composite("livejournal_like", "fennel", 2, BATCH, "edge")
    source.run("livejournal_like", "pr", composite, {"iterations": 10}, view="pr")
    source.memo("exp6_reference_times", {"dataset": "livejournal_like"})


def _tiny_plan() -> Planner:
    planner = Planner(model_for=builtin_cost_model)
    _tiny_cells(planner)
    return planner


def test_job_graph_dedups_shared_cells():
    planner = _tiny_plan()
    before = len(planner.graph)
    # replanning the same cells must not grow the graph
    planner.refine("livejournal_like", "fennel", 2, "pr", "edge")
    planner.partition("livejournal_like", "fennel", 2)
    assert len(planner.graph) == before


def test_job_graph_rejects_unplanned_deps():
    from repro.eval.engine.jobs import Job, JobGraph

    graph = JobGraph()
    with pytest.raises(ValueError):
        graph.add(Job("j1", "run", {"kind": "run"}, ("missing",)))


@pytest.mark.slow
def test_executor_serial_facade_key_agreement(tmp_path, monkeypatch):
    """Cells warmed by the executor must be hits for the facade — for
    every row of the cell table."""
    planner = _tiny_plan()
    assert {job.kind for job in planner.graph} == set(CELLS)
    cache = ArtifactCache(tmp_path)
    report = execute(planner.graph, cache, jobs=1)
    assert report.computed == report.total == 7

    monkeypatch.setattr(harness, "trained_cost_model", builtin_cost_model)
    before = cache.stats.snapshot()
    with use_engine(EvalEngine(cache=cache)):
        _tiny_cells(harness.Reader())
    delta = cache.stats.delta(before)
    assert delta.misses == 0
    assert delta.hits == 7


@pytest.mark.slow
@pytest.mark.timeout(600)
def test_executor_parallel_matches_serial(tmp_path):
    """Process-pool execution computes identical artifacts (by content)."""
    planner = _tiny_plan()
    serial = execute(planner.graph, ArtifactCache(tmp_path / "serial"), jobs=1)
    cache = ArtifactCache(tmp_path / "parallel")
    parallel = execute(planner.graph, cache, jobs=2)
    assert parallel.computed == parallel.total == serial.total

    def contents(report):
        return {
            jid: {k: v for k, v in meta.items() if k != "seconds"}
            for jid, meta in report.meta.items()
        }

    assert contents(serial) == contents(parallel)
    # a warm replay in the parallel workspace is identical bit-for-bit,
    # measured seconds included
    warm = execute(planner.graph, cache, jobs=2)
    assert warm.meta == parallel.meta
    assert warm.hits == warm.total and warm.computed == 0


# ----------------------------------------------------------------------
# run_all bit-identity (reduced subset; full sweep runs in CI)
# ----------------------------------------------------------------------
def _run_all(workspace: Path, *extra: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run(
        [
            sys.executable, "-m", "repro.eval.run_all",
            "--quick", "--only", "exp3,exp4",
            "--cache-dir", str(workspace / "cache"), *extra,
        ],
        capture_output=True, text=True, env=env, check=True, cwd=str(workspace),
    )


@pytest.mark.slow
@pytest.mark.timeout(1800)
def test_run_all_quick_tables_bit_identical(tmp_path):
    """--jobs 1 (cold), --jobs 4 (warm) and a warm rerun print identical
    tables; the warm runs hit the cache instead of recomputing."""
    cold = _run_all(tmp_path, "--jobs", "1")
    warm_parallel = _run_all(tmp_path, "--jobs", "4")
    warm_serial = _run_all(tmp_path, "--jobs", "1")
    assert cold.stdout == warm_parallel.stdout == warm_serial.stdout
    assert "Exp-3" in cold.stdout and "Exp-4" in cold.stdout
    assert "0 misses" in warm_parallel.stderr
    assert "0 misses" in warm_serial.stderr
    assert "[warm]" in warm_parallel.stderr


@pytest.mark.slow
@pytest.mark.timeout(600)
def test_run_all_only_rejects_unknown_experiment(tmp_path):
    env = dict(os.environ, PYTHONPATH=SRC)
    for only, problem in (("exp9", "unknown experiment"), (",", "no experiment")):
        result = subprocess.run(
            [sys.executable, "-m", "repro.eval.run_all", "--quick", "--only", only,
             "--no-cache"],
            capture_output=True, text=True, env=env, cwd=str(tmp_path),
        )
        assert result.returncode == 2
        assert problem in result.stderr
        assert "exp1, exp2, exp3, exp4, exp5, exp6, appendix, hetero" in result.stderr


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--jobs", "0"], "error: jobs must be a positive integer, got 0\n"),
        (["--jobs", "-3"], "error: jobs must be a positive integer, got -3\n"),
    ],
    ids=["jobs-0", "jobs-neg"],
)
@pytest.mark.parametrize(
    "entry, command",
    [
        (run_all.main, ["--quick", "--only", "exp6", "--no-cache"]),
        (cli_main, ["sweep", "--quick", "--only", "exp6", "--no-cache"]),
    ],
    ids=["run_all", "sweep"],
)
def test_run_all_rejects_bad_policy_values(
    entry, command, flags, message, tmp_path, monkeypatch, capsys
):
    """Each used to end in a traceback or be clamped to 1 silently, and a
    rejected ``--no-cache`` run left its temp cache behind."""
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    assert entry(command + flags) == 2
    captured = capsys.readouterr()
    assert captured.err == message
    assert captured.out == ""
    assert list(tmp_path.glob("repro-cache-*")) == []
