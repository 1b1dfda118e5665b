"""Tests for the refinement driver (``repro.core.driver``, DESIGN §8.1).

The driver's one claim is that a full pass *is* an incremental pass
whose scope is everything.  Two checks pin it:

* ``scope=None`` reproduces the pre-driver ``refine`` byte-for-byte —
  serialized partition, ``last_stats`` and, for the Par refiners, the
  per-phase simulated times and superstep counts — against
  ``golden/driver_full_pass.json``, captured from the last commit that
  still carried one hand-written ``refine`` body per refiner;
  its composite entries (ME2H / MV2H / ParME2H / ParMV2H) were captured
  from the last commit with one hand-written pass per composite class,
  and pin every output's serialized partition and ``CompositeStats``
  (the guard cases take snapshots but no step budget, so nothing they
  pin depends on string hashing), and their ParME2H / ParMV2H phase
  times and superstep counts were re-captured when those refiners
  moved from an even-split charge to per-worker work lists; its
  small-batch Par entries (``SMALL_BATCH``) were captured from the last
  commit whose Par phase bodies carried their own copy of each move
  rule; every entry's ``gain_cache`` and ``rescoring_calls`` were
  re-captured when the scorer dropped its per-vertex gain caches (no
  partition, Par charge or other stat moved);
* ``refine_incremental`` with every vertex dirty and no seed walks the
  same budget / classification / candidate sets as ``refine``.

The ``cache_off`` cases run the same refiners under the uncached
``DirectScorer`` (``tests/oracles/direct_scorer.py``) in place of the
gain cache.

The fixture is a pin, not an expectation to refresh: regenerate it
(``PYTHONPATH=src python -m tests.core.test_driver`` from the repo root)
only when a refiner's move order or charge is changed on purpose.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
from pathlib import Path

import pytest

from repro.core import E2H, ME2H, MV2H, V2H, ParE2H, ParME2H, ParMV2H, ParV2H
from repro.core.gaincache import memoize_cost_model
from repro.costmodel.library import builtin_cost_model
from repro.costmodel.model import CostModel
from repro.graph.generators import chung_lu_power_law
from repro.integrity.guard import GuardConfig
from repro.partition.serialize import partition_to_dict
from repro.runtime.clusterspec import ClusterSpec

from tests.conftest import make_edge_cut, make_vertex_cut
from tests.oracles.direct_scorer import use_direct_scorer

GOLDEN = Path(__file__).parent / "golden" / "driver_full_pass.json"

SINGLE = {
    "e2h": (E2H, make_edge_cut),
    "v2h": (V2H, make_vertex_cut),
    "pare2h": (ParE2H, make_edge_cut),
    "parv2h": (ParV2H, make_vertex_cut),
}
SPECS = {
    "uniform": ClusterSpec.uniform(4),
    "skewed": ClusterSpec(
        speeds=(1.0, 2.0, 0.5, 1.5), bandwidths=(1.0, 0.5, 2.0, 1.0)
    ),
}
#: Par passes at batch size 2.  The default batch splits at most three
#: edges in one ESplit superstep on this input; here ParE2H's ESplit runs
#: 26 supersteps, so these cases pin the batch schedules themselves.
SMALL_BATCH = {
    "pare2h_b2": (ParE2H, make_edge_cut, {"batch_size": 2, "enable_emigrate": False}),
    "parv2h_b2": (ParV2H, make_vertex_cut, {"batch_size": 2}),
}
CASES = [
    f"{name}-guard_{guard}-cache_{cache}-{spec}"
    for name, guard, cache, spec in itertools.product(
        SINGLE, ("on", "off"), ("on", "off"), SPECS
    )
] + [
    f"{name}-guard_off-cache_{cache}-{spec}"
    for name, cache, spec in itertools.product(SMALL_BATCH, ("on", "off"), SPECS)
]


COMPOSITE = {
    "me2h": (ME2H, make_edge_cut),
    "mv2h": (MV2H, make_vertex_cut),
    "parme2h": (ParME2H, make_edge_cut),
    "parmv2h": (ParMV2H, make_vertex_cut),
}
COMPOSITE_CASES = [
    f"{name}-guard_{guard}-{spec}"
    for name, guard, spec in itertools.product(COMPOSITE, ("on", "off"), SPECS)
]


def _graph():
    return chung_lu_power_law(150, 5.0, exponent=2.1, directed=True, seed=4)


def _build(case: str, monkeypatch):
    """``(refiner, initial partition)`` of one parametrised case."""
    name, guard, cache, spec = case.split("-")
    if name in SMALL_BATCH:
        refiner_cls, make, options = SMALL_BATCH[name]
    else:
        (refiner_cls, make), options = SINGLE[name], {}
    if cache == "cache_off":
        use_direct_scorer(monkeypatch)
    refiner = refiner_cls(
        builtin_cost_model("pr"),
        guard_config=GuardConfig(snapshot_interval=16)
        if guard == "guard_on"
        else None,
        cluster_spec=SPECS[spec],
        **options,
    )
    return refiner, make(_graph(), 4, seed=1)


def _stats_dict(stats) -> dict:
    """Every RefineStats field except the wall-clock ones."""
    data = dataclasses.asdict(stats)
    data.pop("phase_seconds")
    if data["guard"] is not None:
        data["guard"].pop("overhead_seconds")
    return data


def _capture(case: str) -> dict:
    """Everything a full pass publishes, in JSON-comparable form."""
    with pytest.MonkeyPatch.context() as patch:
        refiner, base = _build(case, patch)
        result = refiner.refine(base)
    if isinstance(result, tuple):
        refined, profile = result
        stats = profile.stats
        extra = {
            "phase_times": profile.phase_times,
            "phase_supersteps": profile.phase_supersteps,
        }
    else:
        refined, stats, extra = result, refiner.last_stats, {}
    blob = json.dumps(partition_to_dict(refined), sort_keys=True)
    return {
        "partition_sha256": hashlib.sha256(blob.encode()).hexdigest(),
        "stats": _stats_dict(stats),
        **extra,
    }


def _capture_composite(case: str) -> dict:
    """Every output's partition and the ``CompositeStats`` of one pass,
    wall-clock fields dropped; Par phase times and supersteps too."""
    name, guard, spec = case.split("-")
    refiner_cls, make = COMPOSITE[name]
    refiner = refiner_cls(
        {alg: builtin_cost_model(alg) for alg in ("pr", "wcc", "sssp")},
        guard_config=GuardConfig(snapshot_interval=16)
        if guard == "guard_on"
        else None,
        cluster_spec=SPECS[spec],
    )
    result = refiner.refine(make(_graph(), 4, seed=1))
    extra = {}
    if isinstance(result, tuple):
        result, profile = result
        stats = profile.composite_stats
        extra = {
            "phase_times": profile.phase_times,
            "phase_supersteps": profile.phase_supersteps,
        }
    else:
        stats = refiner.last_stats
    data = dataclasses.asdict(stats)
    data.pop("phase_seconds")
    for guard_stats in data["guard"].values():
        guard_stats.pop("overhead_seconds")
    return {
        "partition_sha256": {
            alg: hashlib.sha256(
                json.dumps(partition_to_dict(part), sort_keys=True).encode()
            ).hexdigest()
            for alg, part in result.partitions.items()
        },
        "stats": data,
        **extra,
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("case", CASES)
def test_full_scope_is_byte_identical_to_pre_driver_refine(case, golden):
    # Round-trip through JSON so floats compare by their exact repr.
    assert json.loads(json.dumps(_capture(case))) == golden[case]


@pytest.mark.parametrize("case", COMPOSITE_CASES)
def test_composite_full_pass_is_byte_identical_to_golden(case, golden):
    assert json.loads(json.dumps(_capture_composite(case))) == golden[case]


@pytest.mark.parametrize("case", CASES)
def test_everything_dirty_visits_the_same_candidates(case, monkeypatch):
    refiner, base = _build(case, monkeypatch)
    result = refiner.refine(base)
    full = result[1].stats if isinstance(result, tuple) else refiner.last_stats
    assert full.candidates > 0  # the comparison below is not vacuous

    refiner, base = _build(case, monkeypatch)
    everything = range(base.graph.num_vertices)
    result = refiner.refine_incremental(
        base, everything, in_place=False, seed=None
    )
    scoped = result[1].stats if isinstance(result, tuple) else refiner.last_stats
    assert not scoped.incremental.seeded
    assert scoped.incremental.frontier == base.graph.num_vertices
    assert (scoped.budget, scoped.overloaded, scoped.candidates) == (
        full.budget,
        full.overloaded,
        full.candidates,
    )


# ----------------------------------------------------------------------
# One teardown: no pass, finished or failed, leaves a listener behind
# ----------------------------------------------------------------------
ALL_REFINERS = {
    **SINGLE,
    "me2h": (ME2H, make_edge_cut),
    "mv2h": (MV2H, make_vertex_cut),
}


def _models(name, model):
    """A single model, or the composites' per-algorithm dict of it."""
    return {"pr": model, "wcc": model} if name in ("me2h", "mv2h") else model


def _run(name, refiner, partition):
    if name in SINGLE:
        return refiner.refine(partition, in_place=True)
    return refiner.refine(partition)


@pytest.mark.parametrize("guard", [None, GuardConfig(snapshot_interval=4)])
@pytest.mark.parametrize("name", sorted(ALL_REFINERS))
def test_spec_mismatch_leaks_no_listener(name, guard):
    refiner_cls, make = ALL_REFINERS[name]
    partition = make(_graph(), 8, seed=1)
    refiner = refiner_cls(
        _models(name, builtin_cost_model("pr")),
        guard_config=guard,
        cluster_spec=SPECS["skewed"],  # 4 workers, 8 fragments
    )
    before = len(partition._listeners)
    with pytest.raises(ValueError, match="8"):
        _run(name, refiner, partition)
    assert len(partition._listeners) == before


class _FusedPolynomial:
    """Evaluates like ``base`` until the fuse runs out, then raises."""

    def __init__(self, base, fuse: int) -> None:
        self.base = base
        self.fuse = fuse

    def evaluate(self, features):
        self.fuse -= 1
        if self.fuse < 0:
            raise RuntimeError("cost model blew its fuse")
        return self.base.evaluate(features)


@pytest.mark.parametrize("guard", [None, GuardConfig(snapshot_interval=4)])
@pytest.mark.parametrize("name", sorted(ALL_REFINERS))
def test_failing_cost_model_leaks_no_listener(name, guard):
    """``h_value`` raising on the N-th call — during the tracker
    rebuild, the guard's first snapshot, or mid-phase — unwinds every
    listener; so does a pass that runs to completion."""
    refiner_cls, make = ALL_REFINERS[name]
    base = builtin_cost_model("pr")
    outcomes = set()
    for fuse in (0, 1, 40, 300, 800, 1500, 3000, 10**9):
        model = CostModel(
            name=base.name, h=_FusedPolynomial(base.h, fuse), g=base.g
        )
        partition = make(_graph(), 4, seed=1)
        refiner = refiner_cls(_models(name, model), guard_config=guard)
        before = len(partition._listeners)
        try:
            result = _run(name, refiner, partition)
        except RuntimeError:
            outcomes.add("raised")
        else:
            outcomes.add("finished")
            if name not in SINGLE:
                composite = result[0] if isinstance(result, tuple) else result
                for output in composite.partitions.values():
                    assert output._listeners == []
        assert len(partition._listeners) == before, fuse
    assert outcomes == {"raised", "finished"}


# ----------------------------------------------------------------------
# One place publishes stats
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", ["pare2h", "parv2h"])
def test_par_refiners_publish_last_stats(name, monkeypatch):
    refiner, base = _build(f"{name}-guard_off-cache_on-uniform", monkeypatch)
    assert refiner.last_stats is None
    refined, profile = refiner.refine(base, capture_seed=True)
    assert refiner.last_stats is profile.stats
    assert profile.stats.rescoring_calls > 0
    _, profile = refiner.refine_incremental(refined, {0, 1, 2})
    assert refiner.last_stats is profile.stats
    assert profile.stats.incremental.seeded


@pytest.mark.parametrize("name", ["parme2h", "parmv2h"])
def test_composite_par_refiners_publish_last_stats(name):
    refiner_cls, make = COMPOSITE[name]
    refiner = refiner_cls({alg: builtin_cost_model(alg) for alg in ("pr", "wcc")})
    assert refiner.last_stats is None
    _composite, profile = refiner.refine(make(_graph(), 4, seed=1))
    assert refiner.last_stats is profile.composite_stats
    assert profile.composite_stats.rescoring_calls > 0


@pytest.mark.parametrize("name", ["me2h", "mv2h"])
def test_full_composite_pass_counts_rescoring_calls(name):
    refiner_cls, make = ALL_REFINERS[name]
    models = {alg: builtin_cost_model(alg) for alg in ("pr", "wcc")}
    refiner = refiner_cls(models)
    refiner.refine(make(_graph(), 4, seed=1))
    stats = refiner.last_stats
    # Every counted request lands in exactly one output's value memo.
    memo_requests = sum(
        memo.value_hits + memo.value_misses for memo in stats.gain_cache.values()
    )
    assert stats.rescoring_calls == memo_requests > 0
    assert not hasattr(stats, "cost_before")


def test_a_cache_over_a_memoized_model_counts_into_that_memo():
    """One stats object per evaluation stack: a refiner handed an
    already-memoized model reports the memo's own counters."""
    memo = memoize_cost_model(builtin_cost_model("pr"))
    refiner = V2H(memo)
    refiner.refine(make_vertex_cut(_graph(), 4, seed=1))
    stats = refiner.last_stats.gain_cache
    assert stats is memo.stats
    assert stats.value_hits > 0 and stats.value_misses > 0


def test_mv2h_output_counters_include_its_vmerge_pass(monkeypatch):
    """MV2H's nested VMerge pass evaluates through the output's memo, so
    its value hits and misses land in that output's
    ``CompositeStats.gain_cache`` entry rather than a stats object no
    one reads."""
    from repro.core import mv2h

    nested = []

    class RecordingV2H(V2H):
        def refine(self, partition, **kwargs):
            memo = self.cost_model.stats
            before = memo.value_hits + memo.value_misses
            result = super().refine(partition, **kwargs)
            nested.append((self.last_stats.gain_cache, before))
            return result

    monkeypatch.setattr(mv2h, "V2H", RecordingV2H)
    refiner = MV2H({alg: builtin_cost_model(alg) for alg in ("pr", "wcc")})
    refiner.refine(make_vertex_cut(_graph(), 4, seed=1))
    outputs = refiner.last_stats.gain_cache
    assert len(nested) == len(outputs) == 2
    for name, (pass_stats, before) in zip(("pr", "wcc"), nested):
        assert pass_stats is outputs[name]
        assert pass_stats.value_hits + pass_stats.value_misses > before


def test_mv2h_tail_selects_no_candidates(monkeypatch):
    """MV2H's tail runs V2H with VMerge alone, which reads no candidates:
    the pass makes no GetCandidates call (a plain V2H pass does)."""
    from repro.core import driver

    calls = []
    get_candidates = driver.get_candidates

    def spy(*args, **kwargs):
        calls.append(args[1])
        return get_candidates(*args, **kwargs)

    monkeypatch.setattr(driver, "get_candidates", spy)
    V2H(builtin_cost_model("pr")).refine(make_vertex_cut(_graph(), 4, seed=1))
    assert calls
    calls.clear()
    refiner = MV2H({alg: builtin_cost_model(alg) for alg in ("pr", "wcc")})
    refiner.refine(make_vertex_cut(_graph(), 4, seed=1))
    assert refiner.last_stats.vmerged > 0
    assert calls == []


def test_refiner_class_lookup():
    from repro.core import ParME2H, ParMV2H, refiner_class

    assert refiner_class("edge") is E2H
    assert refiner_class("vertex", parallel=True) is ParV2H
    assert refiner_class("edge", composite=True) is ME2H
    assert refiner_class("vertex", composite=True) is MV2H
    assert refiner_class("edge", composite=True, parallel=True) is ParME2H
    assert refiner_class("vertex", composite=True, parallel=True) is ParMV2H
    with pytest.raises(ValueError, match="cannot refine a 'hybrid' baseline"):
        refiner_class("hybrid", parallel=True)
    with pytest.raises(ValueError, match="cannot composite-refine a 'hybrid'"):
        refiner_class("hybrid", composite=True)


if __name__ == "__main__":  # fixture capture, see the module docstring
    GOLDEN.parent.mkdir(exist_ok=True)
    captured = {case: _capture(case) for case in CASES}
    captured.update({case: _capture_composite(case) for case in COMPOSITE_CASES})
    GOLDEN.write_text(json.dumps(captured, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN} ({len(captured)} cases)")
