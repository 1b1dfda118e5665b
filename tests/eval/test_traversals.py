"""One traversal per experiment: the cells planned are the cells read.

Each experiment asks a cell source for its cells once; ``run_all`` walks
that traversal over the planner to warm the cache and over a reader to
print the tables.  These tests hold the two walks to each other on the
golden tiny configs, and pin the appendix's refusal of baselines that
cannot be refined.
"""

from __future__ import annotations

import pytest

from repro.costmodel.library import builtin_cost_model
from repro.eval import harness
from repro.eval.engine import ArtifactCache, EvalEngine, Planner, use_engine
from repro.eval.experiments import appendix, exp2, hetero
from tests.eval.test_golden import EXP2_CONFIG, HETERO_CONFIG

APPENDIX_CONFIG = dict(
    dataset="livejournal_like",
    baseline="grid",
    algorithms=("pr",),
    num_fragments=2,
)


@pytest.mark.parametrize("baseline", ["ginger", "topox", "hash"])
def test_phase_speedups_refuses_unrefinable_baselines(baseline, monkeypatch):
    """Hybrid baselines used to be refined by ParV2H (and ``hash`` by
    ParE2H); now they raise before any cell is computed."""

    def no_partition(*args, **kwargs):
        raise AssertionError("a cell was computed")

    monkeypatch.setattr(harness, "initial_partition", no_partition)
    with pytest.raises(ValueError, match="cannot refine a '(hybrid|unknown)'"):
        appendix.phase_speedups(
            dataset="livejournal_like",
            baseline=baseline,
            algorithms=("pr",),
            num_fragments=2,
        )


@pytest.mark.slow
@pytest.mark.timeout(900)
@pytest.mark.parametrize(
    "cells, config",
    [
        (exp2.table4_cells, EXP2_CONFIG),
        (appendix.phase_cells, APPENDIX_CONFIG),
        (hetero.hetero_cells, HETERO_CONFIG),
    ],
    ids=["exp2", "appendix", "hetero"],
)
def test_render_reads_exactly_the_planned_cells(cells, config, tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "trained_cost_model", builtin_cost_model)
    planner = Planner()
    cells(planner, **config)
    cache = ArtifactCache(tmp_path / "cache")
    engine = EvalEngine(cache=cache, virtual=True)
    engine.warm(planner.graph, jobs=1)
    planned = {path.stem for path in (tmp_path / "cache").glob("*/*.json")}

    read = set()
    get = cache.get

    def recording_get(key):
        read.add(key)
        return get(key)

    monkeypatch.setattr(cache, "get", recording_get)
    before = cache.stats.snapshot()
    with use_engine(engine):
        assert cells(harness.Reader(), **config)
    assert cache.stats.delta(before).misses == 0
    assert read == planned
