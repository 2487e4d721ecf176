"""Approximate weighted APSP (paper Theorem 9).

Iterated squaring over the min-plus semiring, with each squaring performed
by the Lemma 20 ``(1 + delta)``-approximate distance product.  After
``ceil(log2 n)`` squarings the result ``D~`` satisfies

    d(u, v) <= D~[u, v] <= (1 + delta)^{ceil(log2 n)} d(u, v),

so choosing ``delta = o(1 / log n)`` gives the paper's ``(1 + o(1))``
approximation in ``O(n^{rho + o(1)})`` rounds.  The simulator exposes
``delta`` directly: the tests sweep it to reproduce the accuracy/rounds
trade-off, and ``extras["ratio_bound"]`` reports the proven bound
``(1 + delta)^{squarings}`` for the chosen parameters.  A weight so heavy
that an ``n - 1``-edge path could reach ``INF`` is refused up front
(:func:`~repro.constants.check_path_weight`), as in exact APSP.
"""

from __future__ import annotations

import math

import numpy as np

from repro.clique.model import CongestedClique
from repro.constants import INF, check_path_weight
from repro.graphs.graphs import Graph
from repro.matmul.distance import approx_distance_product
from repro.runtime import RunResult, make_clique, pad_matrix


def default_delta(n: int) -> float:
    """The paper's choice ``delta = 1 / log^2 n`` (Theorem 9's proof)."""
    return 1.0 / max(1.0, math.log2(max(2, n))) ** 2


def apsp_approx(
    graph: Graph,
    *,
    delta: float | None = None,
    clique: CongestedClique | None = None,
) -> RunResult:
    """Theorem 9: ``(1 + o(1))``-approximate APSP for non-negative weights.

    Args:
        graph: weighted digraph (or undirected graph) with non-negative
            integer weights.
        delta: per-product approximation slack; defaults to the paper's
            ``1/log^2 n``.  The end-to-end ratio bound is
            ``(1 + delta)^{ceil(log2 n)}``.
    """
    _require_nonnegative_weights(graph)
    n = graph.n
    check_path_weight(graph.max_abs_weight(), n, "edge weight")
    clique = clique or make_clique(n, "bilinear")
    eps = delta if delta is not None else default_delta(n)
    dist = pad_matrix(graph.weight_matrix(), clique.n, fill=INF)

    squarings = max(1, math.ceil(math.log2(max(2, n))))
    for step in range(squarings):
        dist = approx_distance_product(
            clique, dist, dist, eps, phase=f"approx-apsp/square{step}"
        )
        np.fill_diagonal(dist, 0)
    ratio_bound = (1.0 + eps) ** squarings
    return RunResult(
        value=dist[:n, :n],
        rounds=clique.rounds,
        clique_size=clique.n,
        meter=clique.meter,
        extras={"delta": eps, "squarings": squarings, "ratio_bound": ratio_bound},
    )


def _require_nonnegative_weights(graph: Graph) -> None:
    edge = graph.adjacency == 1
    if graph.weights is not None and edge.any() and int(graph.weights[edge].min()) < 0:
        raise ValueError("Theorem 9 needs non-negative integer weights")


__all__ = ["apsp_approx", "default_delta"]
