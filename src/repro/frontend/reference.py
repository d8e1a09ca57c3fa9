"""Pure-numpy reference implementations of the benchmark algorithms.

These are the correctness oracles: every scheduling scheme, run through
the cycle simulator, must produce the same vertex properties (up to
floating-point accumulation order) as these direct implementations.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import AlgorithmError
from repro.graph.csr import CSRGraph


def pagerank(
    graph: CSRGraph,
    damping: float = 0.85,
    iterations: int = 20,
    tol: Optional[float] = None,
) -> np.ndarray:
    """Power-iteration PageRank over out-edges.

    Dangling vertices contribute their rank nowhere (matching the
    gather-kernel semantics, which only moves mass along edges).
    """
    n = graph.num_vertices
    if n == 0:
        return np.zeros(0)
    rank = np.full(n, 1.0 / n)
    out_deg = graph.degrees.astype(np.float64)
    src = graph.edge_sources()
    dst = graph.col_idx
    safe_deg = np.where(out_deg > 0, out_deg, 1.0)
    for _ in range(iterations):
        contrib = rank / safe_deg
        acc = np.zeros(n)
        np.add.at(acc, dst, contrib[src])
        new_rank = (1.0 - damping) / n + damping * acc
        if tol is not None and np.abs(new_rank - rank).sum() < tol:
            rank = new_rank
            break
        rank = new_rank
    return rank


def bfs_levels(graph: CSRGraph, source: int = 0) -> np.ndarray:
    """BFS level (hop distance) per vertex; -1 for unreachable."""
    n = graph.num_vertices
    if not 0 <= source < n:
        raise AlgorithmError(f"BFS source {source} out of range [0, {n})")
    level = np.full(n, -1, dtype=np.int64)
    level[source] = 0
    frontier = [source]
    depth = 0
    while frontier:
        depth += 1
        next_frontier = []
        for u in frontier:
            for v in graph.neighbors(u):
                v = int(v)
                if level[v] < 0:
                    level[v] = depth
                    next_frontier.append(v)
        frontier = next_frontier
    return level


def sssp(graph: CSRGraph, source: int = 0) -> np.ndarray:
    """Bellman-Ford shortest path distances; inf for unreachable."""
    n = graph.num_vertices
    if not 0 <= source < n:
        raise AlgorithmError(f"SSSP source {source} out of range [0, {n})")
    dist = np.full(n, np.inf)
    dist[source] = 0.0
    src = graph.edge_sources()
    dst = graph.col_idx
    w = graph.weights
    if np.any(w < 0):
        raise AlgorithmError("SSSP requires non-negative weights")
    for _ in range(max(1, n - 1)):
        relaxed = dist[src] + w
        new_dist = dist.copy()
        np.minimum.at(new_dist, dst, relaxed)
        if np.array_equal(
            new_dist, dist, equal_nan=False
        ) or np.allclose(new_dist, dist, equal_nan=True):
            break
        dist = new_dist
    return dist


def connected_components(graph: CSRGraph) -> np.ndarray:
    """Minimum-label connected components over the symmetrized graph.

    Returns, per vertex, the smallest vertex id in its (weakly)
    connected component — the same labels the CC kernel converges to.
    """
    n = graph.num_vertices
    label = np.arange(n, dtype=np.int64)
    src = graph.edge_sources()
    dst = graph.col_idx
    all_src = np.concatenate([src, dst])
    all_dst = np.concatenate([dst, src])
    changed = True
    while changed:
        new_label = label.copy()
        np.minimum.at(new_label, all_dst, label[all_src])
        # pointer jumping
        new_label = new_label[new_label]
        changed = not np.array_equal(new_label, label)
        label = new_label
    return label
