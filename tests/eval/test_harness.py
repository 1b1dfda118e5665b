"""Tests for the experiment harness plumbing (small settings)."""

import pytest

from repro.eval.harness import (
    BASELINES,
    BATCH,
    algorithm_params,
    refine_for,
    run_algorithm,
)
from repro.graph.generators import chung_lu_power_law
from repro.partitioners.base import get_partitioner


@pytest.fixture(scope="module")
def small_graph():
    return chung_lu_power_law(250, 6.0, seed=71)


def test_roster_matches_paper():
    assert set(BASELINES) == {"xtrapulp", "fennel", "grid", "ne", "ginger", "topox"}
    assert BATCH == ("cn", "tc", "wcc", "pr", "sssp")


def test_algorithm_params():
    assert algorithm_params("cn", "twitter_like")["theta"] == 300
    assert "theta" not in algorithm_params("cn", "livejournal_like")
    assert algorithm_params("pr", "x")["iterations"] == 10


def test_run_algorithm_returns_seconds(small_graph):
    p = get_partitioner("hash").partition(small_graph, 3)
    seconds = run_algorithm(p, "wcc")
    assert seconds > 0


def test_refine_for_rejects_hybrid_cut(small_graph):
    p = get_partitioner("ginger").partition(small_graph, 3)
    with pytest.raises(ValueError):
        refine_for(p, "pr", "hybrid")
