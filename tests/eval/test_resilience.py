"""Artifact integrity and the executor's one recovery rule.

The contract points of DESIGN.md §11:

* **Damage reads as a miss** — malformed JSON, a missing envelope, a
  checksum mismatch and a torn tail all read as misses (never
  exceptions); the damaged file is quarantined to a sidecar directory,
  every copy kept, and ``verify --repair`` audits/heals a whole cache
  root including orphaned temp files.
* **Recompute where read** — a damaged artifact is recomputed from its
  ancestor chain by whichever process reads it.
* **A broken pool finishes serially** — with identical metas.
* **A failing cell raises** — out of ``execute``, on both paths.
"""

from __future__ import annotations

import json
import os
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.costmodel.library import builtin_cost_model
from repro.eval.engine import ArtifactCache, Planner
from repro.eval.engine import executor
from repro.eval.engine.cells import CELLS, payload_meta
from repro.eval.engine.executor import execute


def sabotage_artifact(path: str, mode: str = "corrupt") -> None:
    """Damage the artifact file at ``path`` in place.

    ``corrupt`` overwrites a slice of the body (the checksum no longer
    matches, or the JSON no longer parses); ``torn`` truncates the file
    mid-JSON as an interrupted non-atomic write would.
    """
    with open(path, "rb") as handle:
        data = handle.read()
    if mode == "torn":
        damaged = data[: max(1, len(data) // 2)]
    else:
        mid = len(data) // 2
        damaged = data[:mid] + b"0" * min(8, len(data) - mid) + data[mid + 8 :]
        if damaged == data:
            damaged = data[:-2] + b"!}"
    with open(path, "wb") as handle:
        handle.write(damaged)


def _tiny_plan():
    planner = Planner(model_for=builtin_cost_model)
    part = planner.partition("livejournal_like", "fennel", 2)
    refined = planner.refine("livejournal_like", "fennel", 2, "pr", "edge")
    planner.run("livejournal_like", "pr", part, {"iterations": 10})
    planner.run("livejournal_like", "pr", refined, {"iterations": 10})
    planner.run("livejournal_like", "wcc", refined)
    return planner.graph


def _chain_of(graph, report, kind):
    """The ``(spec, key)`` chain of the first ``kind`` job of a virtual
    run that produced ``report``."""
    chains = {}
    for job in graph:
        chains[job.jid] = executor._chain(job, chains, report, True)
        if job.kind == kind:
            return chains[job.jid]
    raise LookupError(kind)


class _InlinePool:
    """Stands in for ``ProcessPoolExecutor``: runs each submission at once,
    in this process (so a patched cell table reaches the "worker")."""

    def __init__(self, max_workers=None, mp_context=None) -> None:
        pass

    def submit(self, fn, *args) -> Future:
        future: Future = Future()
        try:
            future.set_result(fn(*args))
        except Exception as exc:
            future.set_exception(exc)
        return future

    def shutdown(self, wait=True, cancel_futures=False) -> None:
        pass


class _BrokenPool(_InlinePool):
    """A pool whose every worker dies."""

    def submit(self, fn, *args) -> Future:
        future: Future = Future()
        future.set_exception(BrokenProcessPool("a worker died"))
        return future


# ----------------------------------------------------------------------
# Cache integrity
# ----------------------------------------------------------------------
def _put_one(tmp_path, payload=None):
    cache = ArtifactCache(tmp_path)
    key = "ab" + "0" * 62
    cache.put(key, payload or {"kind": "memo", "value": [1, 2, 3]})
    return cache, key


def _write(path, text):
    with open(path, "w") as handle:
        handle.write(text)


def _mismatch(path):
    with open(path) as handle:
        envelope = json.load(handle)
    envelope["payload"]["value"] = [9, 9, 9]
    _write(path, json.dumps(envelope))


DAMAGE = {
    "malformed-json": lambda path: _write(path, "{ not json"),
    # valid JSON, but a pre-envelope legacy artifact (raw payload)
    "missing-envelope": lambda path: _write(path, '{"kind": "memo", "value": 1}'),
    "checksum-mismatch": _mismatch,
    "torn-tail": lambda path: sabotage_artifact(path, mode="torn"),
}


@pytest.mark.parametrize("damage", list(DAMAGE), ids=list(DAMAGE))
def test_cache_damage_reads_as_miss_and_quarantines(tmp_path, damage):
    cache, key = _put_one(tmp_path)
    DAMAGE[damage](cache.path_for(key))
    cache.forget(key)
    assert cache.get(key) is None  # no exception
    assert cache.stats.quarantined == 1
    assert not os.path.exists(cache.path_for(key))
    assert os.listdir(tmp_path / "quarantine") == [f"{key}.json"]
    assert "1 quarantined" in cache.stats.describe()


def test_quarantine_keeps_every_damaged_copy(tmp_path):
    cache, key = _put_one(tmp_path)
    for _ in range(2):
        cache.put(key, {"kind": "memo", "value": [1, 2, 3]})
        sabotage_artifact(cache.path_for(key), mode="torn")
        cache.forget(key)
        assert cache.get(key) is None
    assert cache.stats.quarantined == 2
    assert sorted(os.listdir(tmp_path / "quarantine")) == [
        f"{key}.1.json",
        f"{key}.json",
    ]


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
# The recovery rule (real cells, small graph, virtual wall-clock so
# metas compare exactly across runs)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def clean(tmp_path_factory):
    """A tiny plan, and the report of a clean serial run of it."""
    graph = _tiny_plan()
    cache = ArtifactCache(tmp_path_factory.mktemp("clean"))
    return graph, execute(graph, cache, jobs=1, virtual=True)


def test_materialise_heals_a_damaged_dependency_where_it_is_read(tmp_path, clean):
    graph, report = clean
    chain = _chain_of(graph, report, "refine")
    cache = ArtifactCache(tmp_path)
    executor._materialise(cache, chain, True)
    sabotage_artifact(cache.path_for(chain[0][1]), mode="corrupt")
    os.unlink(cache.path_for(chain[1][1]))

    fresh = ArtifactCache(tmp_path)
    payload, computed = executor._materialise(fresh, chain, True)
    assert computed
    assert fresh.stats.quarantined == 1
    assert fresh.get(chain[0][1]) is not None  # the input was recomputed too
    jid = next(job.jid for job in graph if job.kind == "refine")
    assert payload_meta(payload) == report.meta[jid]


@pytest.mark.timeout(600)
def test_pool_recomputes_a_corrupted_partition(tmp_path, clean):
    graph, report = clean
    cache = ArtifactCache(tmp_path)
    execute(graph, cache, jobs=1, virtual=True)
    partition_key = _chain_of(graph, report, "partition")[-1][1]
    sabotage_artifact(cache.path_for(partition_key), mode="corrupt")

    healed = execute(graph, ArtifactCache(tmp_path), jobs=2, virtual=True)
    assert healed.quarantined >= 1
    assert healed.computed == 1 and healed.hits == healed.total - 1
    assert healed.meta == report.meta


def test_broken_pool_finishes_serially(tmp_path, clean, monkeypatch):
    graph, report = clean
    monkeypatch.setattr(executor, "ProcessPoolExecutor", _BrokenPool)
    broken = execute(graph, ArtifactCache(tmp_path), jobs=2, virtual=True)
    assert broken.worker_crashes == 1
    assert broken.computed == broken.total
    assert broken.meta == report.meta


@pytest.mark.parametrize("jobs", [1, 2])
def test_poisoned_cell_raises_out_of_execute(tmp_path, monkeypatch, jobs):
    def poisoned(spec, graph, source, virtual):
        raise RuntimeError("poisoned cell")

    monkeypatch.setitem(CELLS, "refine", CELLS["refine"]._replace(compute=poisoned))
    monkeypatch.setattr(executor, "ProcessPoolExecutor", _InlinePool)
    with pytest.raises(RuntimeError, match="poisoned cell"):
        execute(_tiny_plan(), ArtifactCache(tmp_path), jobs=jobs, virtual=True)
