"""Centralised reference algorithms -- the test oracles.

Everything here runs on a single machine with full knowledge of the graph
(no simulation, no metering) and is implemented by a *different* method than
the distributed algorithms wherever possible (brute-force enumeration, BFS,
Floyd-Warshall), so agreement between the two is meaningful evidence of
correctness.
"""

from __future__ import annotations

import numpy as np

from repro.constants import INF
from repro.errors import NegativeCycleError
from repro.graphs.graphs import Graph


def triangle_count_reference(graph: Graph) -> int:
    """Triangles via the trace formula (Itai-Rodeh [42]); exact."""
    a = graph.adjacency
    cubed = a @ a @ a
    trace = int(np.trace(cubed))
    return trace // 3 if graph.directed else trace // 6


def count_cycles_brute(graph: Graph, k: int) -> int:
    """Count ``k``-cycles by path enumeration (small graphs only).

    Canonicalisation: enumerate paths starting at the cycle's smallest node;
    each undirected cycle is found twice (two directions), each directed
    cycle once.
    """
    if k < 3:
        raise ValueError(f"cycles need k >= 3, got {k}")
    adj_out = [set(np.nonzero(graph.adjacency[v])[0].tolist()) for v in range(graph.n)]
    count = 0

    def extend(start: int, path: list[int], visited: set[int]) -> None:
        nonlocal count
        last = path[-1]
        if len(path) == k:
            if start in adj_out[last]:
                count += 1
            return
        for nxt in adj_out[last]:
            if nxt > start and nxt not in visited:
                visited.add(nxt)
                path.append(nxt)
                extend(start, path, visited)
                path.pop()
                visited.remove(nxt)

    for start in range(graph.n):
        extend(start, [start], {start})
    return count if graph.directed else count // 2


def four_cycle_count_reference(graph: Graph) -> int:
    """Undirected 4-cycles via co-degree pairs; directed via enumeration."""
    if graph.directed:
        return count_cycles_brute(graph, 4)
    a = graph.adjacency
    codeg = a @ a
    np.fill_diagonal(codeg, 0)
    pairs = codeg * (codeg - 1) // 2
    # Each C4 is counted once per diagonal pair = twice in total.
    return int(np.triu(pairs, k=1).sum()) // 2


def girth_reference(graph: Graph) -> int:
    """Exact girth; ``INF`` for acyclic graphs.

    Undirected: BFS from every node, shortest cycle through the root found
    when a non-tree edge closes at matching levels.  Directed: for every
    node, BFS distance back to itself through one outgoing step.
    """
    n = graph.n
    adj = [np.nonzero(graph.adjacency[v])[0].tolist() for v in range(n)]
    best = INF
    if graph.directed:
        for s in range(n):
            dist = _bfs(adj, s)
            for u in range(n):
                if dist[u] < INF and graph.adjacency[u, s]:
                    best = min(best, dist[u] + 1)
        return best
    for s in range(n):
        dist = [INF] * n
        parent = [-1] * n
        dist[s] = 0
        queue = [s]
        head = 0
        while head < len(queue):
            u = queue[head]
            head += 1
            for w in adj[u]:
                if dist[w] >= INF:
                    dist[w] = dist[u] + 1
                    parent[w] = u
                    queue.append(w)
                elif parent[u] != w:
                    # Closed walk: root->u tree path, edge (u, w), w->root.
                    # It contains a cycle of length <= dist[u] + dist[w] + 1,
                    # and for a root on a shortest cycle the bound is tight,
                    # so the global minimum is the exact girth.
                    best = min(best, dist[u] + dist[w] + 1)
        # Cycles through s are found exactly; cycles not through s are found
        # from their own BFS roots.
    return best


def _bfs(adj: list[list[int]], source: int) -> list[int]:
    dist = [INF] * len(adj)
    dist[source] = 0
    queue = [source]
    head = 0
    while head < len(queue):
        u = queue[head]
        head += 1
        for w in adj[u]:
            if dist[w] >= INF:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


def apsp_reference(graph: Graph) -> np.ndarray:
    """Floyd-Warshall over the weight matrix; raises on negative cycles."""
    dist = graph.weight_matrix().copy()
    n = graph.n
    for k in range(n):
        via = dist[:, k : k + 1] + dist[k : k + 1, :]
        finite = (dist[:, k : k + 1] < INF) & (dist[k : k + 1, :] < INF)
        candidate = np.where(finite, via, INF)
        dist = np.minimum(dist, candidate)
    if np.any(np.diag(dist) < 0):
        raise NegativeCycleError("graph contains a negative-weight cycle")
    return dist


def validate_routing_table(
    graph: Graph, dist: np.ndarray, next_hop: np.ndarray
) -> bool:
    """Walk every routing-table path and check it realises the distance."""
    w = graph.weight_matrix()
    n = graph.n
    for u in range(n):
        for v in range(n):
            if u == v:
                continue
            if dist[u, v] >= INF:
                continue
            cur = u
            total = 0
            hops = 0
            while cur != v:
                nxt = int(next_hop[cur, v])
                if not (0 <= nxt < n) or w[cur, nxt] >= INF:
                    return False
                total += int(w[cur, nxt])
                cur = nxt
                hops += 1
                if hops > n:
                    return False
            if total != dist[u, v]:
                return False
    return True


__all__ = [
    "triangle_count_reference",
    "count_cycles_brute",
    "four_cycle_count_reference",
    "girth_reference",
    "apsp_reference",
    "validate_routing_table",
]
