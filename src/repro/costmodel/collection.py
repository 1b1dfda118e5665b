"""Training data collection (Section 4, "Model training").

To learn ``h_A`` we run algorithm ``A`` on a roster of graphs, each under
randomly chosen edge-cut *and* vertex-cut partitions (the paper imposes no
restriction on training graphs or how they are partitioned), and harvest
one sample ``[X(v), t]`` per vertex copy that actually participated in
computation.  For ``g_A`` we harvest samples only from master copies of
replicated vertices, since other copies incur little communication.

Costs come from the instrumented BSP runtime: per-copy computation
operation counts and per-master communication byte counts, scaled by the
simulator's per-op / per-byte charge so units read as (synthetic)
milliseconds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.costmodel.features import vertex_features
from repro.graph.digraph import Graph
from repro.graph.metrics import average_degree
from repro.partition.hybrid import HybridPartition

# Scale from abstract operation counts to synthetic milliseconds; only the
# relative magnitudes matter anywhere in the library.
OP_MILLISECONDS = 1e-4
BYTE_MILLISECONDS = 1e-5


@dataclass(frozen=True)
class TrainingSample:
    """One ``[X(v), t]`` training sample."""

    features: Mapping[str, float]
    cost: float


def _random_edge_cut(
    graph: Graph, num_fragments: int, rng: np.random.Generator
) -> HybridPartition:
    assignment = rng.integers(0, num_fragments, size=graph.num_vertices)
    return HybridPartition.from_vertex_assignment(graph, assignment.tolist(), num_fragments)


def _random_vertex_cut(
    graph: Graph, num_fragments: int, rng: np.random.Generator
) -> HybridPartition:
    assignment = {
        edge: int(rng.integers(0, num_fragments)) for edge in graph.edges()
    }
    return HybridPartition.from_edge_assignment(graph, assignment, num_fragments)


Samples = List[Tuple[Mapping[str, float], float]]


def training_partitions(
    graphs: Sequence[Graph], num_fragments: int = 4, seed: int = 0
) -> Iterator[Tuple[Graph, HybridPartition]]:
    """A random edge-cut then a random vertex-cut of each graph, drawn in
    that order from one ``seed``-ed stream, one graph at a time."""
    rng = np.random.default_rng(seed)
    for graph in graphs:
        yield graph, _random_edge_cut(graph, num_fragments, rng)
        yield graph, _random_vertex_cut(graph, num_fragments, rng)


def harvest(
    algorithms: Mapping[str, Optional[Dict]],
    partitions: Iterable[Tuple[Graph, HybridPartition]],
) -> Dict[str, Tuple[Samples, Samples]]:
    """Run every algorithm (name → run params) on each ``(graph,
    partition)`` — runs leave a partition as it was, so one serves them
    all — and harvest each one's ``(comp_samples, comm_samples)``."""
    from repro.algorithms.registry import get_algorithm

    samples: Dict[str, Tuple[Samples, Samples]] = {name: ([], []) for name in algorithms}
    for graph, partition in partitions:
        avg = average_degree(graph)
        for name, params in algorithms.items():
            profile = get_algorithm(name).run(partition, **(params or {})).profile
            comp_samples, comm_samples = samples[name]
            for (fid, v), ops in profile.comp_ops_by_copy.items():
                if ops <= 0:
                    continue
                features = vertex_features(partition, v, fid, avg)
                comp_samples.append((features, ops * OP_MILLISECONDS))
            for v, nbytes in profile.comm_bytes_by_master.items():
                if nbytes <= 0 or not partition.is_border(v):
                    continue
                fid = partition.master(v)
                features = vertex_features(partition, v, fid, avg)
                comm_samples.append((features, nbytes * BYTE_MILLISECONDS))
    return samples


def collect_training_data(
    algorithm_name: str,
    graphs: Sequence[Graph],
    num_fragments: int = 4,
    seed: int = 0,
    algorithm_params: Optional[Dict] = None,
) -> Tuple[Samples, Samples]:
    """Run ``algorithm_name`` over ``graphs`` and harvest training samples.

    Each graph is run twice: once under a random edge-cut and once under a
    random vertex-cut, mirroring the paper's mixed training partitions.

    Returns ``(comp_samples, comm_samples)`` as ``(features, cost)``
    tuples ready for :func:`repro.costmodel.training.fit_cost_function`.
    """
    partitions = training_partitions(graphs, num_fragments, seed)
    return harvest({algorithm_name: algorithm_params}, partitions)[algorithm_name]


def default_training_graphs(seed: int = 0, scale: int = 1) -> List[Graph]:
    """The 10-graph training roster (Section 4 trains on 10 graphs).

    A mix of power-law, uniform, small-world and grid topologies at
    ``scale``× the base size, directed and undirected — diverse enough
    that the learner cannot overfit a single degree distribution.
    """
    from repro.graph.generators import (
        chung_lu_power_law,
        erdos_renyi,
        rmat,
        road_grid,
        small_world,
    )

    base = 300 * scale
    return [
        chung_lu_power_law(base, 8.0, exponent=2.1, directed=True, seed=seed + 1),
        chung_lu_power_law(base, 6.0, exponent=2.5, directed=True, seed=seed + 2),
        chung_lu_power_law(base, 8.0, exponent=2.2, directed=False, seed=seed + 3),
        rmat(max(6, (base // 64).bit_length() + 6), 8.0, directed=True, seed=seed + 4),
        erdos_renyi(base, base * 6, directed=True, seed=seed + 5),
        erdos_renyi(base, base * 4, directed=False, seed=seed + 6),
        small_world(base, k=6, rewire_prob=0.2, seed=seed + 7),
        road_grid(int(base ** 0.5) + 2, int(base ** 0.5) + 2, seed=seed + 8),
        chung_lu_power_law(base // 2, 12.0, exponent=2.0, directed=True, seed=seed + 9),
        erdos_renyi(base // 2, base * 3, directed=True, seed=seed + 10),
    ]
