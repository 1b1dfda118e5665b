"""Tests for partition save/load."""

import pytest

from repro.graph.generators import chung_lu_power_law
from repro.partition.composite import CompositePartition
from repro.partition.serialize import (
    load_composite,
    load_partition,
    partition_from_dict,
    partition_to_dict,
    save_composite,
    save_partition,
)
from repro.partition.validation import check_partition

from tests.conftest import make_edge_cut, make_vertex_cut


def _assert_same_partition(a, b):
    assert a.num_fragments == b.num_fragments
    for fa, fb in zip(a.fragments, b.fragments):
        assert set(fa.vertices()) == set(fb.vertices())
        assert set(fa.edges()) == set(fb.edges())
    for v, _hosts in a.vertex_fragments():
        assert a.master(v) == b.master(v)


def test_round_trip_edge_cut(tmp_path, power_graph):
    p = make_edge_cut(power_graph, 4, seed=2)
    path = tmp_path / "p.json"
    save_partition(p, path)
    loaded = load_partition(path, power_graph)
    check_partition(loaded)
    _assert_same_partition(p, loaded)


def test_round_trip_vertex_cut_with_masters(tmp_path, power_graph):
    p = make_vertex_cut(power_graph, 4, seed=2)
    for v, hosts in list(p.vertex_fragments())[:20]:
        if len(hosts) > 1:
            p.set_master(v, max(hosts))
    path = tmp_path / "p.json"
    save_partition(p, path)
    _assert_same_partition(p, load_partition(path, power_graph))


def test_round_trip_refined_hybrid(tmp_path, power_graph):
    from repro.core.e2h import E2H
    from repro.costmodel.library import builtin_cost_model

    p = E2H(builtin_cost_model("cn")).refine(make_edge_cut(power_graph, 4))
    path = tmp_path / "p.json"
    save_partition(p, path)
    loaded = load_partition(path, power_graph)
    check_partition(loaded)
    _assert_same_partition(p, loaded)


def test_wrong_graph_rejected(tmp_path, power_graph, undirected_graph):
    p = make_edge_cut(power_graph, 4)
    path = tmp_path / "p.json"
    save_partition(p, path)
    with pytest.raises(ValueError, match="does not match"):
        load_partition(path, undirected_graph)


def test_wrong_version_rejected(power_graph):
    p = make_edge_cut(power_graph, 4)
    data = partition_to_dict(p)
    data["version"] = 99
    with pytest.raises(ValueError, match="unsupported"):
        partition_from_dict(data, power_graph)


def test_composite_round_trip(tmp_path, power_graph):
    composite = CompositePartition(
        {
            "a": make_edge_cut(power_graph, 3, seed=1),
            "b": make_edge_cut(power_graph, 3, seed=2),
        }
    )
    path = tmp_path / "c.json"
    save_composite(composite, path)
    loaded = load_composite(path, power_graph)
    assert loaded.names == composite.names
    assert loaded.composite_replication_ratio() == pytest.approx(
        composite.composite_replication_ratio()
    )
    for name in composite.names:
        _assert_same_partition(
            composite.partition_for(name), loaded.partition_for(name)
        )


def test_round_trip_keeps_the_raw_indexes(tmp_path):
    """A refined partition's degree and fullness indexes equal a freshly
    loaded copy's: no zero degree and no empty fullness set is kept."""
    from repro.core.e2h import E2H
    from repro.costmodel.library import builtin_cost_model
    from repro.partitioners.base import get_partitioner

    graph = chung_lu_power_law(1000, 6.0, exponent=2.1, directed=True, seed=7)
    p = E2H(builtin_cost_model("pr")).refine(get_partitioner("fennel").partition(graph, 8))
    path = tmp_path / "p.json"
    save_partition(p, path)
    loaded = load_partition(path, graph)
    assert p._full == loaded._full
    assert all(p._full.values())
    for mine, theirs in zip(p.fragments, loaded.fragments):
        assert mine._in_deg == theirs._in_deg
        assert mine._out_deg == theirs._out_deg
        assert 0 not in mine._in_deg.values() and 0 not in mine._out_deg.values()
