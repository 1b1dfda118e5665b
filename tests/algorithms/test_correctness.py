"""Partition-transparency tests: every algorithm must compute the exact
single-machine answer under edge-cut, vertex-cut, hybrid and refined
partitions — the property the paper's algorithms from [20, 21] guarantee."""

import math

import pytest

from repro.algorithms.registry import ALGORITHM_NAMES, get_algorithm
from repro.algorithms.reference import (
    reference_common_neighbors,
    reference_pagerank,
    reference_sssp,
    reference_triangle_count,
    reference_wcc,
)
from repro.core.e2h import E2H
from repro.core.v2h import V2H
from repro.costmodel.library import builtin_cost_model
from repro.graph.generators import chung_lu_power_law, road_grid

from tests.conftest import make_edge_cut, make_vertex_cut


GRAPHS = {
    "power_directed": chung_lu_power_law(180, 6.0, directed=True, seed=31),
    "power_undirected": chung_lu_power_law(150, 5.0, directed=False, seed=32),
    "grid": road_grid(7, 7, seed=33),
}


def _partitions(graph):
    yield "edge_cut", make_edge_cut(graph, 3, seed=1)
    yield "vertex_cut", make_vertex_cut(graph, 3, seed=1)
    model = builtin_cost_model("wcc")
    yield "hybrid_e2h", E2H(model).refine(make_edge_cut(graph, 3, seed=2))
    yield "hybrid_v2h", V2H(model).refine(make_vertex_cut(graph, 3, seed=2))


def _all_cases():
    for gname, graph in GRAPHS.items():
        for pname, partition in _partitions(graph):
            yield pytest.param(graph, partition, id=f"{gname}-{pname}")


CASES = list(_all_cases())


@pytest.mark.parametrize("graph,partition", CASES)
def test_pagerank_matches_reference(graph, partition):
    result = get_algorithm("pr").run(partition, iterations=5)
    reference = reference_pagerank(graph, iterations=5)
    for v in graph.vertices:
        assert result.values[v] == pytest.approx(reference[v], abs=1e-10)


@pytest.mark.parametrize("graph,partition", CASES)
def test_wcc_matches_reference(graph, partition):
    result = get_algorithm("wcc").run(partition)
    assert result.values == reference_wcc(graph)


@pytest.mark.parametrize("graph,partition", CASES)
def test_sssp_matches_reference(graph, partition):
    result = get_algorithm("sssp").run(partition, source=0)
    assert result.values == reference_sssp(graph, 0)


@pytest.mark.parametrize("graph,partition", CASES)
def test_triangle_count_matches_reference(graph, partition):
    result = get_algorithm("tc").run(partition)
    assert result.values == reference_triangle_count(graph)


@pytest.mark.parametrize("graph,partition", CASES)
def test_common_neighbors_matches_reference(graph, partition):
    result = get_algorithm("cn").run(partition, return_pairs=True)
    assert result.values == reference_common_neighbors(graph, return_pairs=True)


class TestCnTheta:
    def test_theta_filters_high_degree(self):
        graph = GRAPHS["power_directed"]
        partition = make_edge_cut(graph, 3, seed=4)
        full = get_algorithm("cn").run(partition).values
        filtered = get_algorithm("cn").run(partition, theta=5).values
        assert filtered <= full
        assert filtered == reference_common_neighbors(graph, theta=5)

    def test_scalar_equals_pair_sum(self):
        graph = GRAPHS["power_directed"]
        partition = make_vertex_cut(graph, 3, seed=4)
        scalar = get_algorithm("cn").run(partition).values
        pairs = get_algorithm("cn").run(partition, return_pairs=True).values
        assert scalar == sum(pairs.values())


class TestSsspUnreachable:
    def test_unreachable_distance_inf(self):
        from repro.graph.digraph import Graph

        g = Graph(4, [(0, 1)])
        partition = make_edge_cut(g, 2, seed=0)
        result = get_algorithm("sssp").run(partition, source=0)
        assert result.values[1] == 1.0
        assert math.isinf(result.values[3])

    def test_alternate_source(self):
        graph = GRAPHS["grid"]
        partition = make_vertex_cut(graph, 3, seed=5)
        result = get_algorithm("sssp").run(partition, source=10)
        assert result.values == reference_sssp(graph, 10)

    @pytest.mark.parametrize("source", [-1, 49, 10**6])
    def test_source_must_be_a_vertex(self, source):
        graph = GRAPHS["grid"]
        assert graph.num_vertices == 49
        partition = make_edge_cut(graph, 3, seed=5)
        with pytest.raises(ValueError, match=rf"source {source} .*num_vertices=49"):
            get_algorithm("sssp").run(partition, source=source)


class TestRunParams:
    """A key ``run`` does not know is an error, not a silent default."""

    @pytest.mark.parametrize("stale", ["itertions", "use_kernels"])
    @pytest.mark.parametrize("name", ALGORITHM_NAMES)
    def test_unknown_param_rejected(self, name, stale):
        partition = make_edge_cut(GRAPHS["grid"], 3, seed=5)
        with pytest.raises(TypeError, match=rf"{stale}; accepted: .*faults"):
            get_algorithm(name).run(partition, **{stale: False})


class TestRegistry:
    def test_all_names_instantiable(self):
        for name in ALGORITHM_NAMES:
            assert get_algorithm(name).name == name

    def test_unknown_rejected(self):
        with pytest.raises(KeyError):
            get_algorithm("bfs")

    def test_constructor_kwargs(self):
        algo = get_algorithm("pr", iterations=3)
        assert algo.iterations == 3
