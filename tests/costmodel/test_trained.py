"""Tests for the runtime-calibrated model pipeline and its disk cache."""

import pytest

from repro.costmodel.model import CostModel
from repro.costmodel.trained import (
    ALGORITHMS,
    _load_cache,
    _save_cache,
    train_models,
)


@pytest.fixture(scope="module")
def pr_model():
    return train_models(["pr"], num_graphs=2)["pr"]


def test_trained_model_shape(pr_model):
    assert isinstance(pr_model, CostModel)
    assert "d_in_L" in pr_model.h.variables()


def test_trained_model_monotone_in_degree(pr_model):
    lo = pr_model.h.evaluate({"d_in_L": 1.0})
    hi = pr_model.h.evaluate({"d_in_L": 50.0})
    assert hi > lo


def test_cn_gate_matches_training_theta():
    model = train_models(["cn"], num_graphs=2)["cn"]
    assert model.gate == ("d_in_G", 300.0)
    assert model.h_value({v: 1000.0 for v in ("d_in_L", "d_in_G", "r", "M", "I", "D", "d_L", "d_G", "d_out_L", "d_out_G")}) == 0.0


def test_cache_round_trip(tmp_path, pr_model):
    path = str(tmp_path / "models.json")
    _save_cache({"pr": pr_model}, path)
    loaded = _load_cache(path)
    features = {"d_in_L": 7.0}
    assert loaded["pr"].h.evaluate(features) == pytest.approx(
        pr_model.h.evaluate(features)
    )
    assert loaded["pr"].gate == pr_model.gate


def test_cache_missing_file(tmp_path):
    assert _load_cache(str(tmp_path / "absent.json")) is None


def test_cache_corrupt_file(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert _load_cache(str(path)) is None


def test_algorithms_roster():
    assert set(ALGORITHMS) == {"cn", "tc", "wcc", "pr", "sssp"}


@pytest.mark.parametrize("algorithms", [("sssp", "wcc", "pr"), ("cn", "tc")])
def test_shared_partitions_train_the_models_one_at_a_time_would(algorithms):
    """One ``train_models`` call builds the random partitions once and
    runs every algorithm on them; each model is the one training that
    algorithm alone gives."""
    shared = train_models(list(algorithms), num_graphs=2)
    for name in algorithms:
        alone = train_models([name], num_graphs=2)[name]
        assert shared[name].h.to_dict() == alone.h.to_dict()
        assert shared[name].g.to_dict() == alone.g.to_dict()
        assert shared[name].gate == alone.gate
