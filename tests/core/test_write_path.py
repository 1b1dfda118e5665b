"""Call-count guard for the write path (DESIGN §15, §16).

Counts, not clocks: a mutation batch costs what it touches, not what the
graph holds.  On the ``stream-maintain`` base of the pipeline benchmark
(Chung–Lu, fennel on 8 fragments) at two sizes, a 16-op batch must never
sort, argsort or list-convert anything the size of the edge set, and must
take the same number of Python calls whether the graph has 16 k or 80 k
edges; and a dirty-region pass must build a candidate unit only for the
frontier vertices it hands to the phases.
"""

from __future__ import annotations

import builtins
import random
import sys

import numpy as np
import pytest

from repro.core import E2H, MutationBatch, apply_mutations
from repro.core.dirty import dirty_frontier
from repro.costmodel.library import builtin_cost_model
from repro.graph.generators import chung_lu_power_law
from repro.partitioners import get_partitioner

FRAGMENTS = 8
BATCHES = 4
BATCH_SIZE = 16


def stream_base(n: int):
    """The benchmark's base partition and ``BATCHES`` batches of its shape:
    half deletions of present edges, half insertions of absent ones."""
    graph = chung_lu_power_law(n, 8.0, exponent=2.1, directed=True, seed=1)
    rng = random.Random(1)
    present = sorted(graph.edges())
    index = set(present)
    batches = []
    for _ in range(BATCHES):
        lines = ["- %d %d" % present.pop(rng.randrange(len(present)))
                 for _ in range(BATCH_SIZE // 2)]
        while len(lines) < BATCH_SIZE:
            edge = (rng.randrange(n), rng.randrange(n))
            if edge[0] != edge[1] and edge not in index:
                index.add(edge)
                lines.append("+ %d %d" % edge)
        batches.append(MutationBatch.parse("\n".join(lines)))
    return get_partitioner("fennel").partition(graph, FRAGMENTS), batches


def apply_counted(partition, batches):
    """``(python calls, largest sorted/argsort/conversion input)`` of applying
    ``batches``, each followed by the array read that folds it in."""
    big = [0]

    def sized(real, is_input):
        def wrapper(first, *args, **kwargs):
            result = real(first, *args, **kwargs)
            if is_input(first):
                big[0] = max(big[0], len(result))
            return result
        return wrapper

    calls = [0]

    def profile(frame, event, arg):
        if event == "call":
            calls[0] += 1
        elif event == "c_call" and getattr(arg, "__name__", "") in ("argsort", "sort"):
            owner = getattr(arg, "__self__", None)  # ndarray.argsort / ndarray.sort
            if isinstance(owner, np.ndarray):
                big[0] = max(big[0], owner.size)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(builtins, "sorted", sized(sorted, lambda arg: True))
        for name in ("asarray", "array"):  # a list of tuples turned into a table
            patch.setattr(
                np, name,
                sized(getattr(np, name), lambda arg: not isinstance(arg, np.ndarray)),
            )
        sys.setprofile(profile)
        try:
            for batch in batches:
                dirty = apply_mutations(partition, batch)
                partition.graph.out_neighbors(min(dirty))
        finally:
            sys.setprofile(None)
    return calls[0], big[0]


def test_a_batch_costs_what_it_touches_not_what_the_graph_holds():
    counts = {}
    for n in (2000, 10000):
        partition, batches = stream_base(n)
        edges = partition.graph.num_edges
        calls, largest = apply_counted(partition, batches)
        assert partition.graph.version == BATCHES * BATCH_SIZE
        # Nothing edge-set-sized is sorted, argsorted or converted from a
        # list: the fold is searchsorted + insert/delete on sorted tables.
        assert largest < edges // 8, f"n={n}: a pass over {largest} of {edges} edges"
        counts[n] = calls
    small, large = counts[2000], counts[10000]
    assert abs(large - small) <= 0.1 * small, counts


def test_a_dirty_pass_builds_units_for_frontier_vertices_only():
    # An unrefined base, so its overloaded fragments reject plenty, and a
    # dirty set in the low-degree tail, so most of the rejects lie off the
    # frontier (255 rejected, 82 of them frontier members).
    partition, _batches = stream_base(2000)
    refiner = E2H(builtin_cost_model("pr"))
    dirty = set(range(1900, 2000))
    frontier = dirty_frontier(partition.graph, dirty)
    built = [0]
    units = []

    def profile(frame, event, arg):
        name = frame.f_code.co_name
        if event == "c_call" and arg is sorted and name == "get_candidates":
            built[0] += 1
        elif event == "return" and name == "get_candidates":
            units.extend(arg)

    sys.setprofile(profile)
    try:
        refiner.refine_incremental(partition, dirty)
    finally:
        sys.setprofile(None)
    stats = refiner.last_stats
    assert 0 < stats.incremental.frontier == len(frontier) < partition.graph.num_vertices
    assert built[0] == len(units) == stats.candidates == stats.emigrated == 82
    assert {v for v, _edges in units} <= frontier
