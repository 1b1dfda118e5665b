"""Call-count guard for partition construction (DESIGN §8.2).

The five construction sites feed ``HybridPartition._bulk_load`` event
columns, and the loader fills every index from array passes: no per-edge
``Fragment._add_edge`` and no per-vertex ``Graph.incident_edges`` walk is
left on the route.  Counting those calls pins it without a clock.
"""

from __future__ import annotations

import random

import pytest

from repro.graph.digraph import Graph
from repro.graph.generators import chung_lu_power_law
from repro.partition.fragment import Fragment
from repro.partition.hybrid import HybridPartition
from repro.partition.serialize import (
    partition_from_dict,
    partition_to_dict,
    restore_partition_state,
)

FRAGMENTS = 5


@pytest.fixture
def counted(monkeypatch):
    """Counts of ``Fragment._add_edge`` and ``Graph.incident_edges`` calls."""
    calls = {"_add_edge": 0, "incident_edges": 0}
    for owner, name in ((Fragment, "_add_edge"), (Graph, "incident_edges")):
        original = getattr(owner, name)

        def counting(self, *args, _original=original, _name=name):
            calls[_name] += 1
            return _original(self, *args)

        monkeypatch.setattr(owner, name, counting)
    return calls


@pytest.mark.parametrize("directed", [True, False])
def test_construction_makes_no_per_edge_calls(counted, directed):
    graph = chung_lu_power_law(300, 5.0, directed=directed, seed=2)
    rng = random.Random(3)
    homes = [rng.randrange(FRAGMENTS) for _ in graph.vertices]
    edges = {edge: rng.randrange(FRAGMENTS) for edge in graph.edges()}

    built = [
        HybridPartition.from_vertex_assignment(graph, homes, FRAGMENTS),
        HybridPartition.from_edge_assignment(graph, edges, FRAGMENTS),
    ]
    built += [part.copy() for part in built]
    built += [partition_from_dict(partition_to_dict(part), graph) for part in built]
    restore_partition_state(built[0], partition_to_dict(built[1]))

    assert counted == {"_add_edge": 0, "incident_edges": 0}
    assert all(part.total_edge_copies() >= graph.num_edges for part in built)
    # The counters are live: the single-edge verb does go through _add_edge.
    fresh = HybridPartition(graph, FRAGMENTS)
    fresh.add_edge_to(0, next(graph.edges()))
    list(graph.incident_edges(0))
    assert counted == {"_add_edge": 1, "incident_edges": 1}
