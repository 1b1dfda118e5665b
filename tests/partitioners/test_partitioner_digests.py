"""Streaming and label-propagation partitioners are pinned byte for byte.

``golden/partitioner_digests.json`` holds, per partitioner and input graph,
the SHA-256 of ``partition_to_dict`` serialized *without* sorting keys, so
the serializer's canonical order (master keys by vertex id) is pinned
along with every fragment's contents.  The graphs carry
self-loops and come in both directions, the cases where
``Graph.neighbors`` has to drop a repeat.

The fixture is a pin, not an expectation to refresh: regenerate it
(``PYTHONPATH=src python -m tests.partitioners.test_partitioner_digests``
from the repo root) only when a partitioner's placement rule changes on
purpose.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.graph.digraph import Graph
from repro.graph.generators import chung_lu_power_law, road_grid
from repro.partition.serialize import partition_to_dict
from repro.partitioners import get_partitioner

GOLDEN = Path(__file__).parent / "golden" / "partitioner_digests.json"

PARTITIONERS = ("fennel", "ldg", "xtrapulp", "topox", "hdrf")
FRAGMENTS = 6


def _with_loops(graph: Graph, step: int) -> Graph:
    loops = [(v, v) for v in range(0, graph.num_vertices, step)]
    return Graph(graph.num_vertices, list(graph.edges()) + loops, graph.directed)


GRAPHS = {
    "powerlaw-directed": lambda: _with_loops(
        chung_lu_power_law(400, 6.0, exponent=2.1, directed=True, seed=3), 7
    ),
    "powerlaw-undirected": lambda: _with_loops(
        chung_lu_power_law(300, 5.0, exponent=2.2, directed=False, seed=5), 5
    ),
    "road": lambda: road_grid(12, 12, diagonal_prob=0.2, seed=2),
}
CASES = [f"{name}-{graph}" for name in PARTITIONERS for graph in GRAPHS]


def _capture(case: str) -> str:
    name, graph = case.split("-", 1)
    part = get_partitioner(name).partition(GRAPHS[graph](), FRAGMENTS)
    return hashlib.sha256(json.dumps(partition_to_dict(part)).encode()).hexdigest()


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("case", CASES)
def test_partition_is_byte_identical_to_the_pin(case, golden):
    assert _capture(case) == golden[case]


if __name__ == "__main__":  # pragma: no cover - regenerates the pin
    GOLDEN.write_text(json.dumps({case: _capture(case) for case in CASES}, indent=1) + "\n")
    sys.stdout.write(f"wrote {GOLDEN}\n")
