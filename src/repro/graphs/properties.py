"""Structural graph properties used by the algorithms and the analysis.

The paper's three knowledge models are driven by three degree-like
quantities, all provided here:

* ``deg(v)``              — own degree (Theorem 2.2)
* ``Δ = max_v deg(v)``    — global maximum degree (Theorem 2.1)
* ``deg₂(v) = max_{u ∈ N+(v)} deg(u)`` — 1-hop-neighborhood maximum degree
  (Corollary 2.3)
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Tuple

import numpy as np

from .graph import Graph

__all__ = [
    "deg2",
    "deg2_all",
    "connected_components",
    "is_connected",
    "diameter",
    "bfs_distances",
    "average_degree",
    "degree_histogram",
    "triangle_count",
    "clustering_coefficient",
]


def deg2(graph: Graph, v: int) -> int:
    """``deg₂(v) = max_{u ∈ N(v) ∪ {v}} deg(u)`` (paper, Section 3)."""
    return max(graph.degree(u) for u in graph.closed_neighborhood(v))


def deg2_all(graph: Graph) -> Tuple[int, ...]:
    """``deg₂`` for every vertex, indexed by vertex id.

    One ``maximum.reduceat`` of the neighbours' degrees over the CSR rows
    that have any; an isolated vertex keeps its own degree, 0.
    """
    indptr = graph.indptr
    degrees = np.diff(indptr)
    best = degrees.copy()
    rows = np.flatnonzero(degrees)
    if rows.size:
        neighbor_max = np.maximum.reduceat(degrees[graph.indices], indptr[rows])
        np.maximum(best[rows], neighbor_max, out=neighbor_max)
        best[rows] = neighbor_max
    return tuple(best.tolist())


def bfs_distances(graph: Graph, source: int) -> List[Optional[int]]:
    """BFS hop distances from ``source``; ``None`` for unreachable vertices."""
    dist: List[Optional[int]] = [None] * graph.num_vertices
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for w in graph.neighbors(u):
            if dist[w] is None:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


def connected_components(graph: Graph) -> List[List[int]]:
    """The connected components, each a sorted vertex list; sorted by
    smallest member."""
    seen = [False] * graph.num_vertices
    components: List[List[int]] = []
    for start in graph.vertices():
        if seen[start]:
            continue
        seen[start] = True
        component = [start]
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for w in graph.neighbors(u):
                if not seen[w]:
                    seen[w] = True
                    component.append(w)
                    queue.append(w)
        components.append(sorted(component))
    return components


def is_connected(graph: Graph) -> bool:
    """True iff the graph has at most one connected component."""
    if graph.num_vertices <= 1:
        return True
    return len(connected_components(graph)) == 1


def diameter(graph: Graph) -> Optional[int]:
    """The diameter (max eccentricity); ``None`` if disconnected or empty.

    O(n·m) BFS-from-every-vertex — fine at the benchmark scales used here.
    """
    if graph.num_vertices == 0 or not is_connected(graph):
        return None
    best = 0
    for v in graph.vertices():
        dist = bfs_distances(graph, v)
        best = max(best, max(d for d in dist if d is not None))
    return best


def average_degree(graph: Graph) -> float:
    """Mean vertex degree (0.0 for the empty graph)."""
    if graph.num_vertices == 0:
        return 0.0
    return 2.0 * graph.num_edges / graph.num_vertices


def degree_histogram(graph: Graph) -> Dict[int, int]:
    """Mapping degree → number of vertices with that degree."""
    histogram: Dict[int, int] = {}
    for d in graph.degrees():
        histogram[d] = histogram.get(d, 0) + 1
    return histogram


def triangle_count(graph: Graph) -> int:
    """Number of triangles, via neighbor-intersection on each edge."""
    count = 0
    neighbor_sets = [set(graph.neighbors(v)) for v in graph.vertices()]
    for u, v in graph.edges:
        small, large = (u, v) if graph.degree(u) <= graph.degree(v) else (v, u)
        for w in graph.neighbors(small):
            if w > v and w in neighbor_sets[large]:
                count += 1
    return count


def clustering_coefficient(graph: Graph) -> float:
    """Global clustering coefficient = 3·triangles / open-wedge count."""
    wedges = sum(d * (d - 1) // 2 for d in graph.degrees())
    if wedges == 0:
        return 0.0
    return 3.0 * triangle_count(graph) / wedges
