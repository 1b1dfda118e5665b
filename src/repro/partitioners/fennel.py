"""Fennel streaming edge-cut partitioner [47].

Vertices arrive in a stream; each is placed at the fragment maximizing
the Fennel objective

    |N(v) ∩ V_i|  −  α · γ · |V_i|^{γ−1}

— neighbors already co-located minus a superlinear size penalty — subject
to a hard capacity ``ν · |V| / n``.  With the paper's recommended
``γ = 1.5`` and ``α = √n · |E| / |V|^{1.5}``.

Like the original, placement quality depends on stream order; the default
order is the natural vertex order (which for the synthetic generators
puts hubs first, the adversarial case Fennel handles via its penalty).
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence

from repro.graph.digraph import Graph
from repro.partition.hybrid import HybridPartition
from repro.partitioners.base import Partitioner, register_partitioner


class Fennel(Partitioner):
    """Streaming edge-cut with the Fennel objective."""

    name = "fennel"
    cut_type = "edge"

    def __init__(
        self,
        gamma: float = 1.5,
        slack: float = 1.1,
        order: Optional[Sequence[int]] = None,
    ) -> None:
        self.gamma = gamma
        self.slack = slack
        self.order = order

    def partition(self, graph: Graph, num_fragments: int) -> HybridPartition:
        """Stream vertices, placing each by the Fennel objective."""
        n = graph.num_vertices
        if n == 0:
            return HybridPartition(graph, num_fragments)
        m = max(1, graph.num_edges)
        alpha = math.sqrt(num_fragments) * m / (n ** self.gamma)
        capacity = self.slack * n / num_fragments

        assignment: List[int] = [-1] * n
        sizes = [0] * num_fragments
        # α·γ·|V_i|^{γ−1} per fragment; only the grown fragment's changes.
        penalties = [self._penalty(alpha, 0)] * num_fragments
        order = self.order if self.order is not None else range(n)
        for v in order:
            neighbor_counts = [0] * num_fragments
            for u in graph.neighbors(v).tolist():
                fid = assignment[u]
                if fid >= 0:
                    neighbor_counts[fid] += 1
            best_fid = 0
            best_score = -math.inf
            for fid in range(num_fragments):
                if sizes[fid] + 1 > capacity:
                    continue
                score = neighbor_counts[fid] - penalties[fid]
                if score > best_score:
                    best_score = score
                    best_fid = fid
            if best_score == -math.inf:  # all full: least-loaded fallback
                best_fid = min(range(num_fragments), key=sizes.__getitem__)
            assignment[v] = best_fid
            sizes[best_fid] += 1
            penalties[best_fid] = self._penalty(alpha, sizes[best_fid])
        return HybridPartition.from_vertex_assignment(graph, assignment, num_fragments)

    def _penalty(self, alpha: float, size: int) -> float:
        """The objective's size penalty ``α · γ · |V_i|^{γ−1}``."""
        return alpha * self.gamma * (size ** (self.gamma - 1.0))


register_partitioner("fennel", Fennel)
