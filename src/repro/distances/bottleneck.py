"""Bottleneck (widest-path) APSP -- a semiring-engine extension.

Theorem 1 is stated "over semirings"; the paper exercises it on min-plus
and Boolean. This module exercises the generality on a third instance, the
**max-min (bottleneck) semiring**: the widest-path value

    ``B[u, v] = max over u->v paths of (min edge capacity on the path)``

is the ``n``-th power of the capacity matrix over ``(max, min)``, computed
by the same iterated squaring as Corollary 6 in ``O(n^{1/3} log n)``
rounds, witnesses included (so bottleneck routing tables fall out the same
way shortest-path ones do).

This is exactly the kind of "other problems" the conclusion section
predicts the technique extends to; it doubles as an ablation that the §2.1
engine has no min-plus specific assumptions baked in.
"""

from __future__ import annotations

import numpy as np

from repro.algebra.semirings import MAX_MIN
from repro.clique.model import CongestedClique
from repro.constants import INF
from repro.engine import EngineSession, default_steps
from repro.graphs.graphs import Graph
from repro.runtime import RunResult, make_clique, pad_matrix

#: Self-capacity: a node can keep its own flow without a bottleneck.
SELF_CAPACITY = INF


def capacity_matrix(graph: Graph) -> np.ndarray:
    """The bottleneck analogue of the §3.3 weight matrix.

    ``C[u, v]`` is the edge capacity (edge weight), ``-INF`` for non-edges
    (the max-min additive identity) and ``+INF`` on the diagonal.
    """
    cap = np.full((graph.n, graph.n), -INF, dtype=np.int64)
    edge = graph.adjacency == 1
    if graph.weights is not None:
        cap[edge] = graph.weights[edge]
    else:
        cap[edge] = 1
    np.fill_diagonal(cap, SELF_CAPACITY)
    return cap


def bottleneck_reference(graph: Graph) -> np.ndarray:
    """Centralised widest-path oracle (Floyd-Warshall over (max, min))."""
    cap = capacity_matrix(graph)
    n = graph.n
    for k in range(n):
        via = np.minimum(cap[:, k : k + 1], cap[k : k + 1, :])
        cap = np.maximum(cap, via)
    return cap


def apsp_bottleneck(
    graph: Graph,
    *,
    with_routing_tables: bool = False,
    clique: CongestedClique | None = None,
) -> RunResult:
    """All-pairs widest paths in ``O(n^{1/3} log n)`` rounds.

    ``value[u, v]`` is the best achievable bottleneck capacity from ``u``
    to ``v`` (``-INF`` if unreachable, ``+INF`` on the diagonal).  With
    ``with_routing_tables``, ``extras["next_hop"]`` routes along a widest
    path, built from the engine's native argmax witnesses exactly as in
    Corollary 6.
    """
    n = graph.n
    clique = clique or make_clique(n, "semiring")
    session = EngineSession(clique, "semiring", MAX_MIN)
    cap = pad_matrix(capacity_matrix(graph), clique.n, fill=-INF)
    # pad_matrix zeroes the padded diagonal; bottleneck padding wants the
    # identity capacity there, which zero also satisfies (padded nodes have
    # no edges, so their rows never influence real entries).

    # The same session loops as Corollary 6, over (max, min): with routing
    # tables the resident closure's argmax witnesses drive the updates.
    iterations = default_steps(n)
    extras: dict[str, object] = {}
    if with_routing_tables:
        state = session.seed_resident(cap)
        session.resident_closure(
            steps=iterations, phase="bottleneck", step_label="square"
        )
        cap = state.dist
        extras["next_hop"] = state.routing_table(n)
    else:
        cap = session.closure(
            cap, steps=iterations, phase="bottleneck", step_label="square"
        )
    extras["squarings"] = session.last_squarings
    return RunResult(
        value=cap[:n, :n],
        rounds=clique.rounds,
        clique_size=clique.n,
        meter=clique.meter,
        extras=extras,
    )


def validate_bottleneck_routing(
    graph: Graph, widths: np.ndarray, next_hop: np.ndarray
) -> bool:
    """Walk every routed widest path and check it realises the bottleneck."""
    cap = capacity_matrix(graph)
    n = graph.n
    for u in range(n):
        for v in range(n):
            if u == v or widths[u, v] <= -INF:
                continue
            cur = u
            bottleneck = INF
            hops = 0
            while cur != v:
                nxt = int(next_hop[cur, v])
                if not (0 <= nxt < n) or cap[cur, nxt] <= -INF:
                    return False
                bottleneck = min(bottleneck, int(cap[cur, nxt]))
                cur = nxt
                hops += 1
                if hops > n:
                    return False
            if bottleneck != widths[u, v]:
                return False
    return True


__all__ = [
    "apsp_bottleneck",
    "bottleneck_reference",
    "capacity_matrix",
    "validate_bottleneck_routing",
]
