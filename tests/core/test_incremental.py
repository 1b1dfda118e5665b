"""Tests for incremental partition maintenance (the paper's future-work
extension: keep application-driven partitions fresh under graph updates).

The maintenance route is in place: ``apply_mutations`` pushes a
``MutationBatch`` through graph and partition, ``refine_incremental``
re-refines the dirty region (DESIGN §15).
"""

import pytest

from repro.algorithms.reference import reference_wcc
from repro.algorithms.registry import get_algorithm
from repro.core.e2h import E2H
from repro.core.incremental import MutationBatch, apply_mutations
from repro.core.tracker import CostTracker
from repro.costmodel.library import builtin_cost_model
from repro.graph.digraph import Graph
from repro.graph.generators import chung_lu_power_law
from repro.partition.hybrid import HybridPartition
from repro.partition.serialize import partition_to_dict
from repro.partition.validation import check_partition

from tests.conftest import make_edge_cut


def _batch(insertions=(), deletions=()):
    lines = [f"+ {u} {v}" for u, v in insertions]
    lines += [f"- {u} {v}" for u, v in deletions]
    return MutationBatch.parse("\n".join(lines))


@pytest.fixture()
def base_graph():
    # Function-scoped: apply_mutations edits the graph in place.
    return chung_lu_power_law(250, 6.0, seed=51)


@pytest.fixture()
def maintained(base_graph):
    """``(refiner, refined partition)`` with a warm tracker seed."""
    refiner = E2H(builtin_cost_model("wcc"))
    refined = refiner.refine(
        make_edge_cut(base_graph, 4, seed=1), in_place=True, capture_seed=True
    )
    return refiner, refined


class TestApplyGraphDelta:
    """The graph-level effect of ``apply_mutations``."""

    def _two_fragments(self, graph):
        assignment = [v % 2 for v in range(graph.num_vertices)]
        return HybridPartition.from_vertex_assignment(graph, assignment, 2)

    def test_insertions_and_deletions(self):
        g = Graph(4, [(0, 1), (1, 2)])
        partition = self._two_fragments(g)
        dirty = apply_mutations(
            partition, _batch(insertions=[(2, 3)], deletions=[(0, 1)])
        )
        assert g.has_edge(2, 3)
        assert not g.has_edge(0, 1)
        assert g.has_edge(1, 2)
        assert dirty == {0, 1, 2, 3}
        check_partition(partition)

    def test_new_vertices_grow_graph(self):
        g = Graph(3, [(0, 1)])
        partition = self._two_fragments(g)
        apply_mutations(partition, _batch(insertions=[(1, 6)]))
        assert g.num_vertices == 7
        assert all(partition.placement(v) for v in range(7))
        check_partition(partition)

    def test_delete_absent_edge_noop(self):
        g = Graph(3, [(0, 1)])
        partition = self._two_fragments(g)
        before = partition_to_dict(partition)
        assert apply_mutations(partition, _batch(deletions=[(1, 2)])) == set()
        assert g == Graph(3, [(0, 1)])
        assert partition_to_dict(partition) == before

    def test_undirected_canonicalization(self):
        g = Graph(3, [(0, 1)], directed=False)
        partition = self._two_fragments(g)
        apply_mutations(partition, _batch(insertions=[(2, 1)]))
        assert g.has_edge(1, 2)
        assert any(f.has_edge((1, 2)) for f in partition.fragments)
        check_partition(partition)


class TestIncrementalRefiner:
    """``apply_mutations`` + ``refine_incremental`` end to end."""

    def test_update_preserves_validity(self, base_graph, maintained):
        refiner, refined = maintained
        deletions = list(base_graph.edges())[:5]
        dirty = apply_mutations(
            refined,
            _batch([(0, base_graph.num_vertices - 1)], deletions),
        )
        updated = refiner.refine_incremental(refined, dirty)
        check_partition(updated)
        for edge in deletions:
            assert not base_graph.has_edge(*edge)
            assert not any(f.has_edge(edge) for f in updated.fragments)
        stats = refiner.last_stats
        assert stats.incremental.seeded
        assert stats.incremental.dirty == len(dirty)

    def test_original_partition_untouched(self, base_graph, maintained):
        refiner, refined = maintained
        dirty = apply_mutations(
            refined, _batch(deletions=list(base_graph.edges())[:3])
        )
        before = partition_to_dict(refined)
        updated = refiner.refine_incremental(refined, dirty, in_place=False)
        assert updated is not refined
        assert partition_to_dict(refined) == before
        # A copy has its own journal: the seed cannot replay against it.
        assert not refiner.last_stats.incremental.seeded

    def test_algorithms_correct_after_update(self, base_graph, maintained):
        refiner, refined = maintained
        insertions = [(5, 190), (12, 40)]
        deletions = list(base_graph.edges())[10:14]
        dirty = apply_mutations(refined, _batch(insertions, deletions))
        updated = refiner.refine_incremental(refined, dirty)
        result = get_algorithm("wcc").run(updated)
        assert result.values == reference_wcc(updated.graph)

    def test_new_vertex_gets_placed(self, base_graph, maintained):
        refiner, refined = maintained
        new_v = base_graph.num_vertices + 3
        dirty = apply_mutations(refined, _batch(insertions=[(0, new_v)]))
        updated = refiner.refine_incremental(refined, dirty)
        assert updated.placement(new_v)
        check_partition(updated)

    def test_cheaper_than_full_refinement_cost(self, base_graph, maintained):
        """Maintained partition quality close to a from-scratch refine."""
        refiner, refined = maintained
        model = refiner.cost_model
        dirty = apply_mutations(
            refined, _batch(deletions=list(base_graph.edges())[:10])
        )
        updated = refiner.refine_incremental(refined, dirty)

        scratch = E2H(model).refine(make_edge_cut(updated.graph, 4, seed=2))
        t_inc = CostTracker(updated, model)
        t_scr = CostTracker(scratch, model)
        assert t_inc.parallel_cost() <= 2.0 * t_scr.parallel_cost()
        t_inc.detach()
        t_scr.detach()
