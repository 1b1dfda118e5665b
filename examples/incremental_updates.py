"""Keeping a tailored partition fresh as the graph evolves.

The paper's conclusion names incremental maintenance as future work:
re-partitioning after every batch of updates is wasteful, but a stale
partition drifts out of balance.  This example simulates a living social
graph — a growing hub — maintained in place: ``apply_mutations`` pushes
each ``MutationBatch`` through graph and partition coherently, and
``refine_incremental`` re-refines only the dirty region over a
warm-started cost tracker (DESIGN §15).

Run:  python examples/incremental_updates.py
"""

from repro.algorithms import get_algorithm
from repro.algorithms.reference import reference_wcc
from repro.core import E2H, MutationBatch, apply_mutations
from repro.costmodel import builtin_cost_model
from repro.graph import chung_lu_power_law
from repro.partition import check_partition
from repro.partitioners import get_partitioner


def main() -> None:
    model = builtin_cost_model("cn")
    graph = chung_lu_power_law(1200, avg_degree=8, exponent=2.1, seed=33)
    print(f"initial graph: {graph}")

    refiner = E2H(model)
    partition = refiner.refine(
        get_partitioner("metis").partition(graph, num_fragments=4),
        capture_seed=True,  # lets the first maintenance pass start warm
    )
    print(f"refined partition cost: {refiner.last_stats.cost_after:.4f}")

    hub = 0
    next_vertex = graph.num_vertices
    for step in range(3):
        # Each batch: 40 new followers of the hub + 10 unfollows.
        lines = [f"+ {next_vertex + i} {hub}" for i in range(40)]
        lines += [
            f"- {u} {v}" for u, v in list(graph.edges())[step * 10 : step * 10 + 10]
        ]
        next_vertex += 40

        dirty = apply_mutations(partition, MutationBatch.parse("\n".join(lines)))
        refiner.refine_incremental(partition, dirty)
        check_partition(partition)
        stats = refiner.last_stats
        print(
            f"batch {step + 1}: {len(dirty)} dirty vertices, frontier "
            f"{stats.incremental.frontier} in {stats.incremental.fragments} "
            f"fragments, tracker {'warm' if stats.incremental.seeded else 'cold'}, "
            f"{stats.rescoring_calls} rescoring calls, "
            f"cost {stats.cost_before:.4f} -> {stats.cost_after:.4f}"
        )

    # The maintained partition still computes exact answers.
    result = get_algorithm("wcc").run(partition)
    assert result.values == reference_wcc(graph)
    print(
        f"final graph: {graph}; WCC on the maintained partition "
        f"matches the reference ({len(set(result.values.values()))} components)"
    )


if __name__ == "__main__":
    main()
