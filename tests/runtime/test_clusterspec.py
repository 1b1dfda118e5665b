"""Unit tests for :mod:`repro.runtime.clusterspec`.

Validation must fail loudly *at construction*, naming the offending
worker or link — a bad capacity that slipped through would silently
skew every downstream makespan.
"""

import json
import math

import pytest

from repro.runtime.clusterspec import (
    ClusterSpec,
    cluster_spec_default,
    coerce_cluster_spec,
    set_cluster_spec_default,
    spec_payload,
)


def _spec(**kwargs):
    base = dict(speeds=(1.0, 2.0), bandwidths=(1.0, 0.5))
    base.update(kwargs)
    return ClusterSpec(**base)


class TestValidation:
    def test_valid_spec_constructs(self):
        spec = _spec(links=((0, 1, 0.25),))
        assert spec.num_workers == 2
        assert not spec.is_uniform

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
    def test_bad_speed_names_worker(self, bad):
        with pytest.raises(ValueError, match="worker 1"):
            _spec(speeds=(1.0, bad))

    @pytest.mark.parametrize("bad", [0.0, -0.5, float("nan"), float("inf")])
    def test_bad_bandwidth_names_worker(self, bad):
        with pytest.raises(ValueError, match="worker 0"):
            _spec(bandwidths=(bad, 1.0))

    def test_bad_link_bandwidth_names_link(self):
        with pytest.raises(ValueError, match=r"link 0->1"):
            _spec(links=((0, 1, -2.0),))

    def test_link_outside_cluster(self):
        with pytest.raises(ValueError, match=r"link 0->7"):
            _spec(links=((0, 7, 1.0),))

    def test_self_link_rejected(self):
        with pytest.raises(ValueError, match=r"link 1->1"):
            _spec(links=((1, 1, 1.0),))

    def test_duplicate_link_rejected(self):
        with pytest.raises(ValueError, match=r"link 0->1.*more than once"):
            _spec(links=((0, 1, 0.5), (0, 1, 0.25)))

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="2 speeds but 3 bandwidths"):
            ClusterSpec(speeds=(1.0, 1.0), bandwidths=(1.0, 1.0, 1.0))

    def test_empty_spec_rejected(self):
        with pytest.raises(ValueError, match="at least one worker"):
            ClusterSpec(speeds=(), bandwidths=())

    def test_validate_for_mismatch(self):
        with pytest.raises(ValueError, match="describes 2 workers.*has 4"):
            _spec().validate_for(4)

    def test_validate_for_match_passes(self):
        _spec().validate_for(2)


class TestQueries:
    def test_uniform_is_uniform(self):
        assert ClusterSpec.uniform(3).is_uniform

    def test_all_ones_with_degraded_link_is_not_uniform(self):
        spec = ClusterSpec((1.0, 1.0), (1.0, 1.0), links=((0, 1, 0.5),))
        assert not spec.is_uniform

    def test_link_bandwidth_is_min_of_endpoints(self):
        spec = _spec()  # bandwidths (1.0, 0.5)
        assert spec.link_bandwidths.tolist() == [[1.0, 0.5], [0.5, 1.0]]

    def test_link_override_wins(self):
        spec = _spec(links=((0, 1, 0.125),))
        assert spec.link_bandwidths.tolist() == [[1.0, 0.125], [0.5, 1.0]]
        assert not spec.link_bandwidths.flags.writeable

    def test_min_capacities(self):
        spec = _spec(links=((0, 1, 0.125),))
        assert spec.min_speed == 1.0
        assert spec.min_bandwidth == 0.125


class TestSerialization:
    def test_round_trip_identity(self):
        spec = _spec(links=((0, 1, 0.25),))
        assert ClusterSpec.from_dict(spec.to_dict()) == spec

    def test_round_trip_through_json_text(self):
        spec = _spec(links=((1, 0, 0.3),))
        assert ClusterSpec.from_dict(json.loads(json.dumps(spec.to_dict()))) == spec

    def test_save_load(self, tmp_path):
        spec = _spec(links=((0, 1, 0.25),))
        path = tmp_path / "spec.json"
        spec.save(path)
        assert ClusterSpec.load(path) == spec

    def test_from_dict_missing_field(self):
        with pytest.raises(ValueError, match="missing 'bandwidths'"):
            ClusterSpec.from_dict({"speeds": [1.0]})

    def test_from_dict_bad_link_key(self):
        with pytest.raises(ValueError, match="'src->dst'"):
            ClusterSpec.from_dict(
                {"speeds": [1.0, 1.0], "bandwidths": [1.0, 1.0], "links": {"0-1": 1.0}}
            )

    def test_from_dict_rejects_non_mapping(self):
        with pytest.raises(ValueError, match="mapping"):
            ClusterSpec.from_dict([1.0, 2.0])

    def test_digest_distinguishes_specs(self):
        assert _spec().digest() == _spec().digest()
        assert _spec().digest() != ClusterSpec.uniform(2).digest()


class TestCoercionAndDefaults:
    def test_coerce_none_and_spec(self):
        spec = _spec()
        assert coerce_cluster_spec(None) is None
        assert coerce_cluster_spec(spec) is spec

    def test_coerce_mapping_and_path(self, tmp_path):
        spec = _spec()
        assert coerce_cluster_spec(spec.to_dict()) == spec
        path = tmp_path / "spec.json"
        spec.save(path)
        assert coerce_cluster_spec(str(path)) == spec

    def test_coerce_rejects_garbage(self):
        with pytest.raises(ValueError, match="cannot interpret"):
            coerce_cluster_spec(42)

    def test_default_round_trip(self):
        spec = _spec()
        previous = set_cluster_spec_default(spec)
        try:
            assert cluster_spec_default() is spec
        finally:
            set_cluster_spec_default(previous)
        assert cluster_spec_default() is previous

    def test_spec_payload_collapses_and_falls_back(self):
        assert spec_payload(None) is None
        assert spec_payload(ClusterSpec.uniform(3)) is None
        skewed = _spec()
        assert spec_payload(skewed) == skewed.to_dict()
        previous = set_cluster_spec_default(skewed)
        try:
            # None falls back to the process default ...
            assert spec_payload(None) == skewed.to_dict()
            # ... but an explicit uniform spec shields from it.
            assert spec_payload(ClusterSpec.uniform(2)) is None
        finally:
            set_cluster_spec_default(previous)
