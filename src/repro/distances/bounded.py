"""APSP for small distances / small weighted diameter (Lemma 19, Corollary 8).

Lemma 19: with positive integer weights, every path of weight at most ``M``
has at most ``M`` hops, so ``ceil(log2 M)`` capped squarings (entries above
``M`` replaced by ``inf`` before each Lemma 18 ring product) compute all
distances up to ``M`` in ``O(M n^rho)`` rounds.

Corollary 8: when the weighted diameter ``U`` is unknown, first compute the
reachability matrix (Boolean transitive closure, ``O(log n)`` Boolean
products), then guess ``U = 1, 2, 4, ...`` and re-run Lemma 19 until every
reachable pair has a finite distance -- a geometric series summing to
``O~(U n^rho)``.
"""

from __future__ import annotations

import math

import numpy as np

from repro.algebra.semirings import BOOLEAN
from repro.clique.model import CongestedClique
from repro.constants import INF
from repro.engine import EngineSession, default_steps
from repro.graphs.graphs import Graph
from repro.matmul.distance import RingDistanceSession
from repro.runtime import (
    RunResult,
    make_clique,
    or_broadcast,
    pad_matrix,
    resolve_rng,
)


def apsp_up_to(
    clique: CongestedClique,
    weight_matrix: np.ndarray,
    max_distance: int,
    *,
    with_routing_tables: bool = False,
    witness_rng: np.random.Generator | None = None,
    phase: str = "lemma19",
) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
    """Lemma 19: all distances up to ``max_distance``, ``INF`` beyond.

    ``weight_matrix`` follows the §3.3 convention (0 diagonal, INF
    non-edges) with positive integer edge weights.

    With ``with_routing_tables``, the fast ring engine's missing arg-min is
    recovered by the §3.4 witness machinery (Lemma 21): after every
    squaring, a witness matrix for the distance product is found with
    ``polylog(n)`` extra masked products and the next-hop table updated as
    in Corollary 6.  Returns ``(dist, next_hop)`` in that case.
    """
    if max_distance < 1:
        raise ValueError(f"max_distance must be >= 1, got {max_distance}")
    session = RingDistanceSession(clique, max_distance)
    dist = np.where(weight_matrix <= max_distance, weight_matrix, INF)
    np.fill_diagonal(dist, 0)
    iterations = max(1, math.ceil(math.log2(max(2, max_distance))))

    def cap(accum: np.ndarray) -> np.ndarray:
        accum = np.where(accum <= max_distance, accum, INF)
        np.fill_diagonal(accum, 0)
        return accum

    if not with_routing_tables:
        # The plain Lemma 19 loop is the shared session closure, capped once
        # at the end: the Lemma 18 encoding already reads entries above the
        # bound as INF, so capping between squarings changes no product.
        return cap(
            session.closure(dist, steps=iterations, phase=phase, step_label="square")
        )

    # With routing tables the fast engine's missing arg-min is recovered by
    # the §3.4 witness machinery (Lemma 21): after every squaring, a witness
    # matrix for the distance product is found with polylog(n) extra masked
    # products and the next-hop table updated as in Corollary 6.
    from repro.matmul.witnesses import find_witnesses

    witness_rng = resolve_rng(witness_rng, 0)
    next_hop = np.full(dist.shape, -1, dtype=np.int64)
    rows, cols = np.nonzero(dist < INF)
    next_hop[rows, cols] = cols
    for step in range(iterations):
        product = session.multiply(dist, dist, phase=f"{phase}/square{step}")

        def engine(a, b, sub_phase):
            return session.multiply(a, b, phase=sub_phase)

        witness = find_witnesses(
            clique,
            dist,
            dist,
            engine,
            p=product,
            rng=witness_rng,
            phase=f"{phase}/witness{step}",
        ).witnesses
        improved = product < dist
        rows, cols = np.nonzero(improved)
        mids = witness[rows, cols]
        assert (mids >= 0).all()
        next_hop[rows, cols] = next_hop[rows, mids]
        dist = cap(np.minimum(dist, product))
    next_hop = np.where(dist < INF, next_hop, -1)
    np.fill_diagonal(next_hop, -1)
    return dist, next_hop


def apsp_bounded(
    graph: Graph,
    max_distance: int,
    *,
    clique: CongestedClique | None = None,
) -> RunResult:
    """Lemma 19 wrapper: distances up to ``max_distance`` for a graph."""
    _require_positive_weights(graph)
    clique = clique or make_clique(graph.n, "bilinear")
    w = pad_matrix(graph.weight_matrix(), clique.n, fill=INF)
    dist = apsp_up_to(clique, w, max_distance)
    return RunResult(
        value=dist[: graph.n, : graph.n],
        rounds=clique.rounds,
        clique_size=clique.n,
        meter=clique.meter,
        extras={"max_distance": max_distance},
    )


def reachability(
    clique: CongestedClique,
    adjacency: np.ndarray,
    *,
    method: str = "bilinear",
    session: EngineSession | None = None,
    phase: str = "reachability",
) -> np.ndarray:
    """Boolean transitive closure by repeated squaring (incl. self-reach).

    The shared session closure over the Boolean semiring: with the diagonal
    pre-set, ``B <- B^2 (+) B`` doubles the reachability radius per step.
    """
    n = adjacency.shape[0]
    session = session or EngineSession(clique, method, BOOLEAN)
    reach = (adjacency > 0).astype(np.int64)
    np.fill_diagonal(reach, 1)
    return session.closure(
        reach, steps=default_steps(n), phase=phase, step_label="square"
    )


def apsp_small_diameter(
    graph: Graph,
    *,
    method: str = "bilinear",
    clique: CongestedClique | None = None,
    initial_guess: int = 1,
) -> RunResult:
    """Corollary 8: exact APSP in ``O~(U n^rho)`` rounds, ``U`` unknown.

    ``extras["diameter_guess"]`` records the final (smallest successful)
    power-of-two guess for the weighted diameter.
    """
    _require_positive_weights(graph)
    n = graph.n
    clique = clique or make_clique(n, "bilinear")
    adjacency = pad_matrix(graph.adjacency, clique.n)
    reach = reachability(clique, adjacency, method=method)
    w = pad_matrix(graph.weight_matrix(), clique.n, fill=INF)

    guess = max(1, initial_guess)
    while True:
        dist = apsp_up_to(clique, w, guess, phase=f"cor8/U{guess}")
        # Done iff every reachable pair has a finite distance; each node
        # checks its row, then one OR-broadcast.
        local_missing = [
            bool(np.any((reach[v] == 1) & (dist[v] >= INF)))
            for v in range(clique.n)
        ]
        if not or_broadcast(clique, local_missing, phase=f"cor8/check{guess}"):
            break
        guess *= 2
    return RunResult(
        value=dist[:n, :n],
        rounds=clique.rounds,
        clique_size=clique.n,
        meter=clique.meter,
        extras={"diameter_guess": guess},
    )


def _require_positive_weights(graph: Graph) -> None:
    edge = graph.adjacency == 1
    if graph.weights is not None and edge.any() and int(graph.weights[edge].min()) < 1:
        raise ValueError("Lemma 19 / Corollary 8 need positive integer weights")


__all__ = ["apsp_up_to", "apsp_bounded", "apsp_small_diameter", "reachability"]
