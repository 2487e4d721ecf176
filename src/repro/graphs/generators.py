"""Workload generators for the Table 1 runs and the tests.

Each generator returns a :class:`repro.graphs.graphs.Graph` and is seeded for
reproducibility.  The families mirror the workloads the paper's problems
call for: random graphs for counting, planted cycles and cycle-free families
for detection, girth-controlled graphs for Theorem 15's two branches, and
weighted digraphs / grid networks for the APSP variants.
"""

from __future__ import annotations

import numpy as np

from repro.graphs.graphs import Graph


def gnp_random_graph(n: int, p: float, seed: int = 0, directed: bool = False) -> Graph:
    """Erdos-Renyi ``G(n, p)``."""
    rng = np.random.default_rng(seed)
    coin = rng.random((n, n)) < p
    if directed:
        adj = coin.astype(np.int64)
    else:
        upper = np.triu(coin, k=1)
        adj = (upper | upper.T).astype(np.int64)
    np.fill_diagonal(adj, 0)
    return Graph(n=n, adjacency=adj, directed=directed)


def random_tree(n: int, seed: int = 0) -> Graph:
    """A uniformly random recursive tree -- acyclic, so girth is infinite."""
    rng = np.random.default_rng(seed)
    edges = [(int(rng.integers(0, v)), v) for v in range(1, n)]
    return Graph.from_edges(n, edges)


def cycle_graph(n: int, directed: bool = False) -> Graph:
    """The single cycle ``C_n``."""
    edges = [(v, (v + 1) % n) for v in range(n)]
    return Graph.from_edges(n, edges, directed=directed)


def planted_cycle_graph(
    n: int,
    k: int,
    seed: int = 0,
    extra_edge_prob: float = 0.0,
    directed: bool = False,
) -> Graph:
    """A sparse background plus one planted ``k``-cycle on random nodes.

    With ``extra_edge_prob = 0`` the graph is a ``k``-cycle plus isolated
    random tree edges -- girth exactly ``k`` -- which is the completeness
    workload for the colour-coding detector.
    """
    if k < 3 or k > n:
        raise ValueError(f"need 3 <= k <= n, got k={k}, n={n}")
    rng = np.random.default_rng(seed)
    nodes = rng.permutation(n)[:k]
    edges = [
        (int(nodes[i]), int(nodes[(i + 1) % k])) for i in range(k)
    ]
    adj = np.zeros((n, n), dtype=np.int64)
    for u, v in edges:
        adj[u, v] = 1
        if not directed:
            adj[v, u] = 1
    if extra_edge_prob > 0:
        # Attach random tree edges outside the cycle (they cannot create
        # cycles, so the planted girth is preserved).
        cycle_set = set(int(x) for x in nodes)
        rest = [v for v in range(n) if v not in cycle_set]
        anchors = list(cycle_set)
        for v in rest:
            if rng.random() < extra_edge_prob:
                u = int(rng.choice(anchors))
                adj[v, u] = 1
                if not directed:
                    adj[u, v] = 1
                anchors.append(v)
    np.fill_diagonal(adj, 0)
    return Graph(n=n, adjacency=adj, directed=directed)


def windmill_graph(n: int) -> Graph:
    """Triangles sharing a single hub: girth 3, provably 4-cycle-free.

    A useful adversarial case for the Theorem 4 detector -- it has a
    high-degree hub (stress for the Lemma 12 tiling) yet contains no C4.
    """
    edges = []
    v = 1
    while v + 1 < n:
        edges.append((0, v))
        edges.append((0, v + 1))
        edges.append((v, v + 1))
        v += 2
    if v < n:
        edges.append((0, v))
    return Graph.from_edges(n, edges)


def bipartite_random_graph(n: int, p: float, seed: int = 0) -> Graph:
    """Random bipartite graph -- no odd cycles; 4-cycles appear for modest p."""
    rng = np.random.default_rng(seed)
    half = n // 2
    adj = np.zeros((n, n), dtype=np.int64)
    coin = rng.random((half, n - half)) < p
    adj[:half, half:] = coin.astype(np.int64)
    adj[half:, :half] = adj[:half, half:].T
    return Graph(n=n, adjacency=adj)


def cycle_with_trees(n: int, girth: int, seed: int = 0) -> Graph:
    """A ``girth``-cycle with random trees hanging off it: girth exact.

    The sparse-branch workload for Theorem 15: few edges, known girth.
    """
    if girth < 3 or girth > n:
        raise ValueError(f"need 3 <= girth <= n, got girth={girth}, n={n}")
    rng = np.random.default_rng(seed)
    edges = [(v, (v + 1) % girth) for v in range(girth)]
    for v in range(girth, n):
        edges.append((int(rng.integers(0, v)), v))
    return Graph.from_edges(n, edges)


def dense_small_girth_graph(n: int, seed: int = 0) -> Graph:
    """A dense graph (for Theorem 15's dense branch): girth 3 w.h.p."""
    return gnp_random_graph(n, p=0.5, seed=seed)


def random_weighted_digraph(
    n: int, p: float, max_weight: int, seed: int = 0, min_weight: int = 1
) -> Graph:
    """Random weighted digraph with integer weights in ``[min_w, max_w]``."""
    rng = np.random.default_rng(seed)
    adj = (rng.random((n, n)) < p).astype(np.int64)
    np.fill_diagonal(adj, 0)
    weights = rng.integers(min_weight, max_weight + 1, size=(n, n), dtype=np.int64)
    weights = weights * adj
    return Graph(n=n, adjacency=adj, directed=True, weights=weights)


def random_weighted_graph(
    n: int, p: float, max_weight: int, seed: int = 0, min_weight: int = 1
) -> Graph:
    """Random undirected weighted graph."""
    rng = np.random.default_rng(seed)
    upper = np.triu(rng.random((n, n)) < p, k=1)
    adj = (upper | upper.T).astype(np.int64)
    w_upper = np.triu(
        rng.integers(min_weight, max_weight + 1, size=(n, n), dtype=np.int64), k=1
    )
    weights = (w_upper + w_upper.T) * adj
    return Graph(n=n, adjacency=adj, directed=False, weights=weights)


def grid_graph(rows: int, cols: int, max_weight: int = 10, seed: int = 0) -> Graph:
    """A weighted grid -- the road-network-style APSP workload.

    Nodes are grid points, edges connect 4-neighbours, weights are random
    "travel times" in ``[1, max_weight]``.
    """
    rng = np.random.default_rng(seed)
    n = rows * cols
    edges: list[tuple[int, int, int]] = []

    def node(r: int, c: int) -> int:
        return r * cols + c

    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                edges.append(
                    (node(r, c), node(r, c + 1), int(rng.integers(1, max_weight + 1)))
                )
            if r + 1 < rows:
                edges.append(
                    (node(r, c), node(r + 1, c), int(rng.integers(1, max_weight + 1)))
                )
    return Graph.from_weighted_edges(n, edges)


def preferential_attachment_graph(n: int, attach: int = 2, seed: int = 0) -> Graph:
    """Barabasi-Albert-style social network: heavy-tailed degrees.

    The triangle-counting motivation workload (social networks); implemented
    directly so the substrate has no external dependencies on this path.
    """
    if attach < 1 or attach >= n:
        raise ValueError(f"need 1 <= attach < n, got attach={attach}, n={n}")
    rng = np.random.default_rng(seed)
    adj = np.zeros((n, n), dtype=np.int64)
    targets = list(range(attach))
    repeated: list[int] = list(range(attach))
    for v in range(attach, n):
        chosen: set[int] = set()
        while len(chosen) < min(attach, v):
            pick = int(rng.choice(repeated)) if rng.random() < 0.7 else int(
                rng.integers(0, v)
            )
            chosen.add(pick)
        for u in chosen:
            adj[u, v] = adj[v, u] = 1
            repeated.append(u)
            repeated.append(v)
        targets.append(v)
    np.fill_diagonal(adj, 0)
    return Graph(n=n, adjacency=adj)


__all__ = [
    "gnp_random_graph",
    "random_tree",
    "cycle_graph",
    "planted_cycle_graph",
    "windmill_graph",
    "bipartite_random_graph",
    "cycle_with_trees",
    "dense_small_girth_graph",
    "random_weighted_digraph",
    "random_weighted_graph",
    "grid_graph",
    "preferential_attachment_graph",
]
