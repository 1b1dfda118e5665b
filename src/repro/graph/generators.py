"""Synthetic graph generators.

The paper evaluates on three real graphs (liveJournal, Twitter, UKWeb), a
US road network, and synthetic scale-up graphs.  None of the real datasets
ship with this reproduction, so the evaluation harness substitutes
generators with matched *shape*:

* :func:`chung_lu_power_law` / :func:`rmat` — scale-free social/web graphs
  whose degree skew drives the paper's workload-imbalance results.
* :func:`road_grid` — a planar, high-diameter network standing in for the
  ``traffic`` road graph used in the SSSP remark of Exp-1.
* :func:`erdos_renyi`, :func:`small_world` — auxiliary topologies for
  cost-model training diversity (Section 4 trains on 10 assorted graphs).
* :func:`clique_collection` — the graph family used by the NP-completeness
  reduction of Theorem 1 (one clique per integer of a set-partition
  instance).

All generators take an explicit ``seed`` and are deterministic given it.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.graph.digraph import Graph


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


_NO_KEYS = np.empty(0, dtype=np.int64)


def _take_new(
    keys: np.ndarray, u: np.ndarray, v: np.ndarray, directed: bool, need: int
) -> np.ndarray:
    """``keys`` plus the first ``need`` distinct drawn pairs it lacks.

    Pairs are packed ``u << 32 | v`` (canonical ``(min, max)`` when
    undirected) and taken in draw order, self-loops skipped: the edges a
    loop adding draws to a set until it holds ``len(keys) + need`` would
    keep.
    """
    u, v = u.astype(np.int64), v.astype(np.int64)
    if not directed:
        u, v = np.minimum(u, v), np.maximum(u, v)
    drawn = ((u << 32) | v)[u != v]
    distinct, first = np.unique(drawn, return_index=True)
    first = np.sort(first[~np.isin(distinct, keys)])[:need]
    return np.concatenate([keys, drawn[first]])


def _keyed_graph(num_vertices: int, keys: np.ndarray, directed: bool) -> Graph:
    return Graph(num_vertices, np.stack([keys >> 32, keys & 0xFFFFFFFF], axis=1), directed)


def erdos_renyi(
    num_vertices: int,
    num_edges: int,
    directed: bool = True,
    seed: int = 0,
) -> Graph:
    """G(n, m) random graph with ``num_edges`` distinct edges."""
    rng = _rng(seed)
    max_possible = num_vertices * (num_vertices - 1)
    if not directed:
        max_possible //= 2
    target = min(num_edges, max_possible)
    keys = _NO_KEYS
    while len(keys) < target:
        need = target - len(keys)
        u = rng.integers(0, num_vertices, size=2 * need + 8)
        v = rng.integers(0, num_vertices, size=2 * need + 8)
        keys = _take_new(keys, u, v, directed, need)
    return _keyed_graph(num_vertices, keys, directed)


def chung_lu_power_law(
    num_vertices: int,
    avg_degree: float,
    exponent: float = 2.2,
    directed: bool = True,
    seed: int = 0,
) -> Graph:
    """Chung–Lu random graph with a power-law expected degree sequence.

    Expected degrees ``w_i ∝ i^{-1/(exponent-1)}`` are scaled so the mean
    equals ``avg_degree``; endpoints are sampled proportionally to weight.
    The result has the heavy-tailed skew (a few super-nodes adjacent to a
    large fraction of edges) that edge-cut partitions struggle with
    (Section 5.1).
    """
    if num_vertices <= 1:
        return Graph(num_vertices, [], directed=directed)
    rng = _rng(seed)
    ranks = np.arange(1, num_vertices + 1, dtype=np.float64)
    weights = ranks ** (-1.0 / (exponent - 1.0))
    weights *= (avg_degree * num_vertices) / weights.sum()
    probs = weights / weights.sum()
    target = int(avg_degree * num_vertices)
    # Identity mapping from weight rank to vertex id keeps vertex 0 the
    # highest-degree hub, which makes tests and examples easy to reason
    # about; callers that need shuffled ids can relabel.
    keys = _NO_KEYS
    attempts = 0
    while len(keys) < target and attempts < 12:
        need = target - len(keys)
        u = rng.choice(num_vertices, size=need + need // 2 + 8, p=probs)
        v = rng.choice(num_vertices, size=need + need // 2 + 8, p=probs)
        keys = _take_new(keys, u, v, directed, need)
        attempts += 1
    return _keyed_graph(num_vertices, keys, directed)


def rmat(
    scale: int,
    avg_degree: float = 16.0,
    a: float = 0.57,
    b: float = 0.19,
    c: float = 0.19,
    directed: bool = True,
    seed: int = 0,
) -> Graph:
    """R-MAT / Kronecker-style generator (Graph500 parameters by default).

    Produces ``2**scale`` vertices and roughly ``avg_degree * 2**scale``
    distinct edges with heavy community-like skew.
    """
    rng = _rng(seed)
    n = 1 << scale
    target = int(avg_degree * n)
    d = 1.0 - a - b - c
    if d < -1e-9:
        raise ValueError("RMAT probabilities must sum to at most 1")
    keys = _NO_KEYS
    probs = np.array([a, b, c, max(d, 0.0)])
    probs = probs / probs.sum()
    attempts = 0
    while len(keys) < target and attempts < 12:
        need = target - len(keys)
        batch = need + need // 2 + 8
        quadrants = rng.choice(4, size=(batch, scale), p=probs)
        row_bits = (quadrants >> 1) & 1
        col_bits = quadrants & 1
        powers = 1 << np.arange(scale - 1, -1, -1)
        us = (row_bits * powers).sum(axis=1)
        vs = (col_bits * powers).sum(axis=1)
        keys = _take_new(keys, us, vs, directed, need)
        attempts += 1
    return _keyed_graph(n, keys, directed)


def road_grid(rows: int, cols: int, diagonal_prob: float = 0.0, seed: int = 0) -> Graph:
    """Planar grid network approximating a road graph (high diameter).

    Vertices form a ``rows x cols`` lattice with 4-neighborhood edges;
    ``diagonal_prob`` optionally adds diagonal shortcuts.  Undirected.
    """
    rng = _rng(seed)
    edges = []
    def vid(r: int, col: int) -> int:
        return r * cols + col
    for r in range(rows):
        for col in range(cols):
            if col + 1 < cols:
                edges.append((vid(r, col), vid(r, col + 1)))
            if r + 1 < rows:
                edges.append((vid(r, col), vid(r + 1, col)))
            if diagonal_prob > 0 and r + 1 < rows and col + 1 < cols:
                if rng.random() < diagonal_prob:
                    edges.append((vid(r, col), vid(r + 1, col + 1)))
    return Graph(rows * cols, edges, directed=False)


def small_world(
    num_vertices: int, k: int = 4, rewire_prob: float = 0.1, seed: int = 0
) -> Graph:
    """Watts–Strogatz small-world graph (undirected ring + rewiring)."""
    if k % 2:
        raise ValueError("k must be even")
    rng = _rng(seed)
    edges = set()
    for v in range(num_vertices):
        for j in range(1, k // 2 + 1):
            u = (v + j) % num_vertices
            if rng.random() < rewire_prob:
                w = int(rng.integers(0, num_vertices))
                tries = 0
                while (w == v or (min(v, w), max(v, w)) in edges) and tries < 8:
                    w = int(rng.integers(0, num_vertices))
                    tries += 1
                u = w if w != v else u
            if u != v:
                edges.add((min(v, u), max(v, u)))
    return Graph(num_vertices, edges, directed=False)


def clique_collection(sizes: Sequence[int], directed: bool = False) -> Graph:
    """Disjoint union of cliques ``K_{s}`` for each ``s`` in ``sizes``.

    This is the instance family of the Theorem 1 reduction: a set-partition
    input ``S = {s_1, ..., s_m}`` maps to the collection of cliques
    ``K_{s_1}, ..., K_{s_m}``.
    """
    edges = []
    offset = 0
    for s in sizes:
        if s < 1:
            raise ValueError("clique sizes must be positive")
        for i in range(s):
            for j in range(i + 1, s):
                edges.append((offset + i, offset + j))
        offset += s
    return Graph(offset, edges, directed=directed)


def star_graph(num_leaves: int, directed: bool = True) -> Graph:
    """A hub (vertex 0) with ``num_leaves`` leaves pointing at it."""
    edges = [(i, 0) for i in range(1, num_leaves + 1)]
    return Graph(num_leaves + 1, edges, directed=directed)


def path_graph(num_vertices: int, directed: bool = False) -> Graph:
    """Simple path ``0 - 1 - ... - (n-1)``."""
    edges = [(i, i + 1) for i in range(num_vertices - 1)]
    return Graph(num_vertices, edges, directed=directed)


def complete_graph(num_vertices: int, directed: bool = False) -> Graph:
    """Complete graph on ``num_vertices`` vertices."""
    if directed:
        edges = [
            (i, j)
            for i in range(num_vertices)
            for j in range(num_vertices)
            if i != j
        ]
    else:
        edges = [
            (i, j)
            for i in range(num_vertices)
            for j in range(i + 1, num_vertices)
        ]
    return Graph(num_vertices, edges, directed=directed)
