"""Centralised graph oracles that only the tests call.

The oracles the CLI and the examples print their self-checks against stay
in ``repro.graphs.reference``; these four answer questions no shipped code
asks.  Each runs on one machine with the whole graph, by a different method
than the distributed algorithm it checks (BFS, brute-force enumeration,
Floyd-Warshall).
"""

from __future__ import annotations

import numpy as np

from repro.constants import INF
from repro.graphs import Graph, apsp_reference, count_cycles_brute
from repro.graphs.reference import _bfs


def bfs_distances_reference(graph: Graph) -> np.ndarray:
    """All-pairs unweighted distances via BFS from every node."""
    adj = [np.nonzero(graph.adjacency[v])[0].tolist() for v in range(graph.n)]
    return np.array([_bfs(adj, s) for s in range(graph.n)], dtype=np.int64)


def has_k_cycle_reference(graph: Graph, k: int) -> bool:
    """Whether any ``k``-cycle exists (brute force)."""
    return count_cycles_brute(graph, k) > 0


def components_reference(graph: Graph) -> np.ndarray:
    """BFS component labels with smallest-id representatives."""
    n = graph.n
    adjacency = graph.adjacency
    if graph.directed:
        adjacency = ((adjacency + adjacency.T) > 0).astype(np.int64)
    labels = np.full(n, -1, dtype=np.int64)
    for start in range(n):
        if labels[start] != -1:
            continue
        queue = [start]
        labels[start] = start
        while queue:
            u = queue.pop()
            for w in np.nonzero(adjacency[u])[0]:
                if labels[w] == -1:
                    labels[w] = start
                    queue.append(int(w))
    return labels


def diameter_reference(graph: Graph) -> tuple[int, int]:
    """(diameter, radius) over Floyd-Warshall distances, unreachable pairs
    ignored."""
    dist = apsp_reference(graph)
    ecc = []
    for v in range(graph.n):
        finite = dist[v][dist[v] < INF]
        ecc.append(int(finite.max()) if finite.size else 0)
    return max(ecc), min(ecc)
