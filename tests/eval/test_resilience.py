"""Resilience tests: chaos-injected executor runs and cache self-healing.

The contract points of DESIGN.md §11:

* **Recovery** — worker kills, hung jobs, and corrupt/torn artifacts are
  retried / hedged / quarantined-and-recomputed; a sweep never aborts,
  and repeated failures degrade jobs to in-process execution.
* **Determinism under failure** — a chaos-injected cold run leaves a
  cache from which a clean run replays byte-identical tables (5 seeds).
* **Cache self-healing** — malformed JSON, checksum mismatches, and
  truncated artifacts read as misses (never exceptions), damaged files
  are quarantined to a sidecar directory, and ``verify --repair``
  audits/heals a whole cache root including orphaned temp files.
"""

from __future__ import annotations

import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from repro.costmodel.library import builtin_cost_model
from repro.eval.engine import (
    ArtifactCache,
    EngineChaos,
    MissingArtifactError,
    Planner,
    ResilienceConfig,
    RetryPolicy,
    sabotage_artifact,
    seeded_fraction,
)
from repro.eval.engine.executor import execute
from repro.eval.engine.resilience import ResilienceStats

SRC = str(Path(__file__).resolve().parents[2] / "src")

FAST_RETRY = RetryPolicy(base_delay=0.01, max_delay=0.05)


def _tiny_plan():
    planner = Planner(model_for=builtin_cost_model)
    part = planner.partition("livejournal_like", "fennel", 2)
    refined = planner.refine("livejournal_like", "fennel", 2, "pr", "edge")
    planner.run("livejournal_like", "pr", part, {"iterations": 10})
    planner.run("livejournal_like", "pr", refined, {"iterations": 10})
    planner.run("livejournal_like", "wcc", refined)
    return planner.graph


def _strip_seconds(meta):
    """Deterministic part of an execution meta (partitioner wall-clock
    is re-measured per cold computation)."""
    return {
        jid: {k: v for k, v in entry.items() if k != "seconds"}
        for jid, entry in meta.items()
    }


# ----------------------------------------------------------------------
# Policy primitives
# ----------------------------------------------------------------------
def test_seeded_fraction_is_deterministic_and_uniformish():
    draws = [seeded_fraction(7, "x", i) for i in range(200)]
    assert draws == [seeded_fraction(7, "x", i) for i in range(200)]
    assert all(0.0 <= d < 1.0 for d in draws)
    assert 0.3 < sum(draws) / len(draws) < 0.7
    assert seeded_fraction(8, "x", 0) != seeded_fraction(7, "x", 0)


def test_retry_policy_backoff_grows_and_caps():
    policy = RetryPolicy(base_delay=0.1, factor=2.0, max_delay=0.5, jitter=0.0)
    delays = [policy.delay("k", n) for n in (1, 2, 3, 4, 5)]
    assert delays == [0.1, 0.2, 0.4, 0.5, 0.5]
    jittered = RetryPolicy(base_delay=0.1, jitter=0.5)
    assert 0.1 <= jittered.delay("k", 1) <= 0.15
    # deterministic: same (seed, key, attempt) -> same delay
    assert jittered.delay("k", 1) == jittered.delay("k", 1)
    assert jittered.delay("other", 1) != jittered.delay("k", 1)


def test_policy_validation():
    with pytest.raises(ValueError):
        RetryPolicy(max_attempts=0)
    with pytest.raises(ValueError):
        RetryPolicy(factor=0.5)
    with pytest.raises(ValueError):
        RetryPolicy(jitter=1.5)
    with pytest.raises(ValueError):
        ResilienceConfig(timeout=0.0)
    with pytest.raises(ValueError):
        ResilienceConfig(degrade_after=0)
    with pytest.raises(ValueError):
        EngineChaos(kill_rate=1.5)
    with pytest.raises(ValueError):
        EngineChaos(hang_seconds=-1.0)


def test_resilience_stats_merge_and_describe():
    a = ResilienceStats(retries=2, quarantined=1, failed_jobs=["j1"])
    b = ResilienceStats(timeouts=3, hedges=1, skipped_jobs=["j2"])
    a.merge(b)
    assert a.retries == 2 and a.timeouts == 3 and a.hedges == 1
    assert a.total_events == 2 + 3 + 1 + 1 + 1  # + failed job
    assert "2 retries" in a.describe()
    assert "1 failed" in a.describe()
    assert a.as_dict()["skipped_jobs"] == ["j2"]
    assert ResilienceStats().total_events == 0


def test_chaos_fates_are_deterministic_and_first_attempt_only():
    chaos = EngineChaos(seed=5, kill_rate=0.5, corrupt_rate=0.5)
    fates = {key: chaos.fates(key, 0) for key in ("a", "b", "c", "d", "e")}
    assert fates == {key: chaos.fates(key, 0) for key in fates}
    assert any(fates.values())  # at 50% something fires over 5 keys
    assert all(chaos.fates(key, 1) == [] for key in fates)
    later = EngineChaos(seed=5, kill_rate=1.0, first_attempt_only=False)
    assert later.fates("a", 3) == ["kill-worker"]
    assert EngineChaos().is_empty
    assert not chaos.is_empty


def test_missing_artifact_error_survives_pickling():
    exc = pickle.loads(pickle.dumps(MissingArtifactError("deadbeef", 2)))
    assert exc.key == "deadbeef"
    assert exc.quarantined == 2
    assert "deadbeef" in str(exc)


def test_downstream_cone():
    from repro.eval.engine.jobs import Job, JobGraph

    graph = JobGraph()
    graph.add(Job("a", "memo", {}))
    graph.add(Job("b", "memo", {}, ("a",)))
    graph.add(Job("c", "memo", {}, ("b",)))
    graph.add(Job("d", "memo", {}))
    assert graph.downstream_cone("a") == ["b", "c"]
    assert graph.downstream_cone("b") == ["c"]
    assert graph.downstream_cone("d") == []


# ----------------------------------------------------------------------
# Cache self-healing
# ----------------------------------------------------------------------
def _put_one(tmp_path, payload=None):
    cache = ArtifactCache(tmp_path)
    key = "ab" + "0" * 62
    cache.put(key, payload or {"kind": "memo", "value": [1, 2, 3]})
    return cache, key


def test_cache_malformed_json_reads_as_miss_and_quarantines(tmp_path):
    cache, key = _put_one(tmp_path)
    with open(cache.path_for(key), "w") as handle:
        handle.write("{ not json")
    cache.forget(key)
    assert cache.get(key) is None  # no exception
    assert cache.stats.quarantined == 1
    assert not os.path.exists(cache.path_for(key))
    assert os.path.exists(os.path.join(str(tmp_path), "quarantine", f"{key}.json"))
    assert "1 quarantined" in cache.stats.describe()


def test_cache_missing_envelope_keys_read_as_miss(tmp_path):
    cache, key = _put_one(tmp_path)
    # valid JSON, but a pre-envelope legacy artifact (raw payload)
    with open(cache.path_for(key), "w") as handle:
        json.dump({"kind": "memo", "value": 1}, handle)
    cache.forget(key)
    assert cache.get(key) is None
    assert cache.stats.quarantined == 1


def test_cache_checksum_mismatch_quarantined(tmp_path):
    cache, key = _put_one(tmp_path)
    sabotage_artifact(cache.path_for(key), mode="corrupt")
    cache.forget(key)
    assert cache.get(key) is None
    assert cache.stats.quarantined == 1


def test_cache_torn_write_quarantined(tmp_path):
    cache, key = _put_one(tmp_path)
    sabotage_artifact(cache.path_for(key), mode="torn")
    cache.forget(key)
    assert cache.get(key) is None
    assert cache.stats.quarantined == 1


def test_cache_restore_heals_from_memory(tmp_path):
    cache, key = _put_one(tmp_path)
    sabotage_artifact(cache.path_for(key), mode="corrupt")
    assert cache.restore(key)  # the put left a validated in-memory copy
    cache.forget(key)
    assert cache.get(key) == {"kind": "memo", "value": [1, 2, 3]}
    assert cache.stats.quarantined == 0


def test_cache_validate_off_skips_checksum(tmp_path):
    cache, key = _put_one(tmp_path)
    trusting = ArtifactCache(tmp_path, validate=False)
    # flip payload bytes but keep the JSON parseable: without validation
    # the (wrong) payload is returned rather than quarantined
    path = cache.path_for(key)
    with open(path) as handle:
        envelope = json.load(handle)
    envelope["payload"]["value"] = [9, 9, 9]
    with open(path, "w") as handle:
        json.dump(envelope, handle)
    assert trusting.get(key) == {"kind": "memo", "value": [9, 9, 9]}
    assert cache.validate and not trusting.validate


def test_cache_verify_audits_and_repairs(tmp_path):
    cache = ArtifactCache(tmp_path)
    keys = [f"{i:02x}" + "1" * 62 for i in range(4)]
    for key in keys:
        cache.put(key, {"kind": "memo", "value": key})
    sabotage_artifact(cache.path_for(keys[0]), mode="corrupt")
    sabotage_artifact(cache.path_for(keys[1]), mode="torn")
    orphan = os.path.join(str(tmp_path), keys[2][:2], ".tmp-orphan.json")
    with open(orphan, "w") as handle:
        handle.write("partial")

    audit = cache.verify()  # read-only
    assert audit.scanned == 4 and audit.ok == 2
    assert sorted(audit.corrupt) == sorted(keys[:2])
    assert audit.orphan_tmp == [orphan]
    assert audit.quarantined == 0 and audit.removed_tmp == 0
    assert not audit.healthy
    assert os.path.exists(orphan)

    repaired = cache.verify(repair=True)
    assert repaired.quarantined == 2 and repaired.removed_tmp == 1
    assert not os.path.exists(orphan)
    assert cache.verify().healthy
    assert {
        name
        for name in os.listdir(os.path.join(str(tmp_path), "quarantine"))
    } == {f"{key}.json" for key in keys[:2]}


def test_cache_verify_cli(tmp_path):
    from repro.cli import main

    cache = ArtifactCache(tmp_path / "cache")
    cache.put("ab" + "2" * 62, {"kind": "memo", "value": 1})
    assert main(["cache", "verify", "--cache-dir", str(tmp_path / "cache")]) == 0
    sabotage_artifact(cache.path_for("ab" + "2" * 62), mode="corrupt")
    assert main(["cache", "verify", "--cache-dir", str(tmp_path / "cache")]) == 1
    assert (
        main(["cache", "verify", "--repair", "--cache-dir", str(tmp_path / "cache")])
        == 0
    )
    assert main(["cache", "verify", "--cache-dir", str(tmp_path / "cache")]) == 0
    assert main(["cache", "verify", "--cache-dir", str(tmp_path / "nope")]) == 2


# ----------------------------------------------------------------------
# Executor failure paths (real cells, small graph)
# ----------------------------------------------------------------------
@pytest.mark.slow
@pytest.mark.timeout(600)
def test_pool_survives_worker_kills(tmp_path):
    graph = _tiny_plan()
    chaos = EngineChaos(seed=2, kill_rate=0.5)
    policy = ResilienceConfig(retry=FAST_RETRY)
    report = execute(graph, ArtifactCache(tmp_path), jobs=2, resilience=policy, chaos=chaos)
    assert len(report.meta) == report.total == len(graph)
    assert report.resilience.worker_crashes > 0
    assert not report.resilience.failed_jobs


@pytest.mark.slow
@pytest.mark.timeout(600)
def test_pool_times_out_and_hedges_hung_jobs(tmp_path):
    graph = _tiny_plan()
    chaos = EngineChaos(seed=0, hang_rate=0.9, hang_seconds=2.0)
    policy = ResilienceConfig(retry=FAST_RETRY, timeout=0.6)
    report = execute(graph, ArtifactCache(tmp_path), jobs=2, resilience=policy, chaos=chaos)
    assert len(report.meta) == report.total
    assert report.resilience.timeouts > 0
    assert report.resilience.hedges > 0


@pytest.mark.slow
@pytest.mark.timeout(600)
def test_pool_degrades_poisoned_jobs_to_in_process(tmp_path):
    # Every pool attempt hangs (not just the first): the scheduler must
    # fall back to computing in-process, where chaos cannot fire.
    graph = _tiny_plan()
    chaos = EngineChaos(
        seed=0, hang_rate=1.0, hang_seconds=3.0, first_attempt_only=False
    )
    policy = ResilienceConfig(retry=FAST_RETRY, timeout=0.4, hedge=False)
    report = execute(graph, ArtifactCache(tmp_path), jobs=2, resilience=policy, chaos=chaos)
    assert len(report.meta) == report.total
    assert report.resilience.degraded > 0
    assert report.resilience.timeouts > 0
    assert not report.resilience.failed_jobs


@pytest.mark.slow
@pytest.mark.timeout(600)
def test_pool_replans_corrupted_dependencies(tmp_path):
    # Every first-attempt artifact is corrupted after store: dependents
    # find their inputs damaged, quarantine them, and the scheduler
    # re-plans just the dependency's cone until the DAG converges.
    graph = _tiny_plan()
    chaos = EngineChaos(seed=1, corrupt_rate=1.0)
    policy = ResilienceConfig(retry=FAST_RETRY)
    cache = ArtifactCache(tmp_path)
    report = execute(graph, cache, jobs=2, resilience=policy, chaos=chaos)
    assert len(report.meta) == report.total
    assert report.resilience.quarantined > 0
    # the cache heals fully under verify --repair (leaf artifacts are
    # damaged but unread during the warm phase)
    cache.verify(repair=True)
    assert cache.verify().healthy


@pytest.mark.slow
@pytest.mark.timeout(900)
@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_chaos_cold_run_then_clean_run_is_identical(tmp_path, seed):
    """5 seeds: a chaos-injected cold run leaves a cache from which a
    clean serial run replays every cell without recomputing — the
    byte-identical-tables guarantee at the engine level."""
    graph = _tiny_plan()
    chaos = EngineChaos(
        seed=seed, kill_rate=0.2, hang_rate=0.1, corrupt_rate=0.3,
        torn_rate=0.2, hang_seconds=1.0,
    )
    policy = ResilienceConfig(retry=FAST_RETRY, timeout=20.0)
    cache = ArtifactCache(tmp_path)
    chaotic = execute(graph, cache, jobs=2, resilience=policy, chaos=chaos)
    assert len(chaotic.meta) == chaotic.total
    # clean warm run in the same cache: replays artifacts (any damaged
    # leaf is healed on read), identical metas, zero failure events
    clean = execute(graph, cache, jobs=1)
    assert clean.meta == chaotic.meta
    assert clean.computed == 0 or clean.computed <= clean.total
    assert _strip_seconds(clean.meta) == _strip_seconds(chaotic.meta)


@pytest.mark.slow
@pytest.mark.timeout(600)
def test_serial_chaos_run_converges(tmp_path):
    graph = _tiny_plan()
    chaos = EngineChaos(seed=9, corrupt_rate=0.5, torn_rate=0.5)
    report = execute(
        graph,
        ArtifactCache(tmp_path),
        jobs=1,
        resilience=ResilienceConfig(retry=FAST_RETRY),
        chaos=chaos,
    )
    assert len(report.meta) == report.total


@pytest.mark.slow
@pytest.mark.timeout(600)
def test_failed_job_skips_only_its_downstream_cone(tmp_path, monkeypatch):
    """A job whose cell raises on every attempt (worker and in-process)
    fails permanently; only its dependents are skipped."""
    graph = _tiny_plan()
    from repro.eval.engine.cells import CELLS

    def poisoned(spec, graph, source, virtual):
        raise RuntimeError("injected permanent cell failure")

    monkeypatch.setitem(CELLS, "refine", CELLS["refine"]._replace(compute=poisoned))
    report = execute(
        graph,
        ArtifactCache(tmp_path),
        jobs=1,
        resilience=ResilienceConfig(retry=FAST_RETRY),
    )
    refine_jobs = [job.jid for job in graph if job.kind == "refine"]
    run_on_refined = [
        job.jid for job in graph if job.kind == "run" and job.deps[0] in refine_jobs
    ]
    assert report.resilience.failed_jobs == refine_jobs
    assert sorted(report.resilience.skipped_jobs) == sorted(run_on_refined)
    # everything outside the cone completed
    assert len(report.meta) == report.total - len(refine_jobs) - len(run_on_refined)
    assert report.resilience.cell_errors >= FAST_RETRY.max_attempts


# ----------------------------------------------------------------------
# run_all end to end: chaos sweep, byte-identical stdout
# ----------------------------------------------------------------------
def _run_all(workspace: Path, *extra: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run(
        [
            sys.executable, "-m", "repro.eval.run_all",
            "--quick", "--only", "exp3",
            "--cache-dir", str(workspace / "cache"), *extra,
        ],
        capture_output=True, text=True, env=env, check=True, cwd=str(workspace),
    )


@pytest.mark.slow
@pytest.mark.timeout(1800)
def test_run_all_chaos_sweep_tables_bit_identical(tmp_path):
    """The acceptance criterion: a --jobs 4 sweep with seeded chaos
    (kills + corruption + hangs) completes, reports its recoveries on
    stderr, and prints tables byte-identical to a clean serial run."""
    chaotic = _run_all(
        tmp_path,
        "--jobs", "4",
        "--job-timeout", "120",
        "--chaos-seed", "11",
        "--chaos-kill", "0.15",
        "--chaos-corrupt", "0.2",
        "--chaos-hang", "0.1",
        "--chaos-hang-seconds", "1.0",
    )
    clean = _run_all(tmp_path)
    assert chaotic.stdout == clean.stdout
    assert "Exp-3" in clean.stdout
    assert "[resilience]" in chaotic.stderr
    assert "[warm]" in chaotic.stderr
    assert "[resilience]" not in clean.stderr
