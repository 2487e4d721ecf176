"""(2k-1)-spanners on the congested clique (Baswana--Sen via Parter--Yogev).

Parter--Yogev (arXiv:1805.05404) observe that the congested clique runs
graph-sparsification routines whose per-round work is *dense linear
algebra*: one cluster-growing round of the classic Baswana--Sen
``(2k-1)``-spanner reduces to "every vertex learns its cheapest edge into
every current cluster", which is exactly a min-plus product of the live
weight matrix with a cluster-membership matrix.  This module implements
that formulation on the repo's session API:

* each of the ``k`` cluster-growing levels runs **one min-plus witness
  product** on a bound :class:`~repro.engine.EngineSession` -- ``D[v, c]``
  is the cheapest surviving edge from ``v`` into cluster ``c`` and the
  witness names the neighbour attaining it (the engines' §3.3 arg-min);
* re-clustering decisions are broadcast (one word per node, one round) and
  edge retirement is symmetrised by a **one-round dense transpose
  exchange** of the per-row keep masks, so both endpoints of a retired
  edge drop it -- no per-payload tuple outboxes anywhere;
* every exchange runs with the engines' layout-derived load bounds and the
  usual round/meter accounting.

The returned subgraph is a spanner with multiplicative stretch ``2k - 1``
and expected size ``O(k n^{1 + 1/k})``.  Sampling uses the standard
shared-randomness convention (the seed is a public parameter), resolved
through :func:`repro.runtime.resolve_rng`.

A centralised oracle (:func:`baswana_sen_reference`) executes the same
decision code on locally computed products; the equivalence suite pins the
distributed run edge-for-edge against it.
"""

from __future__ import annotations

import numpy as np

from repro.algebra.semirings import MIN_PLUS
from repro.clique.model import CongestedClique
from repro.constants import INF
from repro.engine import EngineSession
from repro.errors import CliqueModelError
from repro.graphs.graphs import Graph
from repro.runtime import RunResult, make_clique, pad_matrix, resolve_rng


def _membership(center: np.ndarray, size: int) -> np.ndarray:
    """The min-plus cluster-membership encode: ``M[u, c] = 0`` iff ``u in c``.

    Every row is node-local (``u`` knows its own centre); the full matrix
    exists only as the simulator's operand convention.
    """
    m = np.full((size, size), INF, dtype=np.int64)
    clustered = np.nonzero(center >= 0)[0]
    m[clustered, center[clustered]] = 0
    return m


def _level_decisions(
    dist: np.ndarray,
    wit: np.ndarray,
    center: np.ndarray,
    sampled: np.ndarray,
    n: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One Baswana--Sen level, as pure row-local decisions.

    Node ``v`` reads only row ``v`` of ``dist``/``wit`` (its cluster
    distances and arg-min neighbours), the globally known ``center`` vector
    and the shared sampling coins.  Returns the new centre vector, the
    per-row edge keep mask (``keep[v, u] = 0`` retires edge ``(v, u)``
    from ``v``'s side) and the per-row added spanner edges.
    """
    size = dist.shape[0]
    new_center = center.copy()
    keep = np.ones((size, size), dtype=np.int64)
    added = np.zeros((size, size), dtype=np.int64)
    for v in range(n):
        c_own = center[v]
        if c_own < 0 or sampled[c_own]:
            # Unclustered vertices are done; sampled clusters persist as-is.
            continue
        row = dist[v]
        adjacent = np.nonzero(row < INF)[0]
        if adjacent.size == 0:
            new_center[v] = -1
            continue
        sampled_adjacent = adjacent[sampled[adjacent]]
        if sampled_adjacent.size == 0:
            # No sampled neighbour: one spoke per adjacent cluster, then v
            # retires all its edges and leaves the clustering.
            added[v, wit[v, adjacent]] = 1
            keep[v, :] = 0
            new_center[v] = -1
        else:
            # Join the nearest sampled cluster (ties: smallest centre id --
            # argmin picks the first of the ascending candidate ids).
            best = sampled_adjacent[int(np.argmin(row[sampled_adjacent]))]
            d_star = row[best]
            added[v, wit[v, best]] = 1
            new_center[v] = best
            # One spoke to every strictly closer cluster, then retire the
            # edges into those clusters and into the joined one.  Ties at
            # d_star (other than `best`) keep their edges and are handled
            # at a later level -- retiring them without a spoke would break
            # the stretch argument.
            closer = adjacent[row[adjacent] < d_star]
            added[v, wit[v, closer]] = 1
            retired_clusters = np.concatenate([closer, [best]])
            keep[v, np.isin(center, retired_clusters)] = 0
    return new_center, keep, added


def _final_decisions(
    dist: np.ndarray, wit: np.ndarray, center: np.ndarray, n: int
) -> np.ndarray:
    """The closing phase: one spoke per adjacent surviving cluster."""
    size = dist.shape[0]
    added = np.zeros((size, size), dtype=np.int64)
    for v in range(n):
        adjacent = np.nonzero(dist[v] < INF)[0]
        adjacent = adjacent[adjacent != center[v]]
        added[v, wit[v, adjacent]] = 1
    return added


def _live_weights(graph: Graph, size: int) -> np.ndarray:
    """The §3.3 weight matrix with an ``INF`` diagonal (edges only)."""
    live = pad_matrix(graph.weight_matrix(), size, fill=INF)
    np.fill_diagonal(live, INF)
    return live


def build_spanner(
    graph: Graph,
    k: int,
    *,
    method: str = "semiring",
    clique: CongestedClique | None = None,
    rng: np.random.Generator | None = None,
    seed: int | None = 0,
) -> RunResult:
    """A ``(2k-1)``-spanner via ``k`` session-product cluster-growing levels.

    Args:
        graph: undirected input (weighted or unit weights).
        k: stretch parameter; the result has multiplicative stretch
            ``2k - 1`` and expected ``O(k n^{1+1/k})`` edges.
        method: a selection-semiring engine (``"semiring"`` or ``"naive"``);
            the bilinear engine cannot run min-plus (Theorem 1).
        rng / seed: shared sampling randomness, resolved by
            :func:`repro.runtime.resolve_rng` (deterministic by default).

    Returns:
        ``value``: the symmetric ``(n, n)`` 0/1 spanner adjacency;
        ``extras``: stretch bound, sampling probability, per-level edge
        counts and the level count.
    """
    if graph.directed:
        raise ValueError("spanners are defined for undirected graphs")
    if k < 1:
        raise ValueError(f"stretch parameter k must be >= 1, got {k}")
    n = graph.n
    clique = clique or make_clique(n, method)
    session = EngineSession(clique, method, MIN_PLUS)
    rng = resolve_rng(rng, seed)
    size = clique.n

    live = _live_weights(graph, size)
    center = np.concatenate(
        [np.arange(n, dtype=np.int64), np.full(size - n, -1, dtype=np.int64)]
    )
    spanner = np.zeros((size, size), dtype=np.int64)
    p = float(n) ** (-1.0 / k) if k > 1 else 1.0
    per_level: list[int] = []

    for level in range(1, k):
        # Shared coins decide which of the previous level's clusters
        # survive; only ids that are currently centres matter, but drawing
        # one coin per node keeps the stream independent of the cluster
        # structure (and identical to the reference oracle's).
        sampled = rng.random(n) < p
        phase = f"spanner/level{level}/cluster-dist"
        dist, wit = session.multiply(
            live, _membership(center, size), with_witnesses=True, phase=phase
        )
        # Cluster ids are real node ids: a finite distance to a padded node
        # can only be a corrupted delivery.
        if np.any(dist[:, n:] < INF):
            raise CliqueModelError(
                f"phase {phase} delivered a finite distance to a padded node"
            )
        center, keep, added = _level_decisions(dist, wit, center, sampled, n)
        spanner |= added
        per_level.append(int(added.sum()))
        # Re-clustering verdicts are row-local; one word per node announces
        # them (one round).
        clique.broadcast_rows(
            center, widths=[1] * size, phase=f"spanner/level{level}/recluster"
        )
        # Symmetric retirement: an edge survives only if *both* endpoints
        # keep it.  One dense one-round exchange ships the keep columns.
        keep_t = clique.transpose_array(
            keep, words_per_entry=1, phase=f"spanner/level{level}/retire"
        )
        live = np.where((keep & keep_t) > 0, live, INF)

    # Closing phase: every vertex connects to each adjacent surviving
    # cluster of the final clustering.
    dist, wit = session.multiply(
        live,
        _membership(center, size),
        with_witnesses=True,
        phase=f"spanner/level{k}/cluster-dist",
    )
    added = _final_decisions(dist, wit, center, n)
    spanner |= added
    per_level.append(int(added.sum()))

    # The spanner was accumulated as row-marks (v marked (v, u)); one more
    # dense one-round exchange hands every mark to the other endpoint.
    spanner |= clique.transpose_array(
        spanner, words_per_entry=1, phase="spanner/symmetrise"
    )
    value = spanner[:n, :n]
    return RunResult(
        value=value,
        rounds=clique.rounds,
        clique_size=clique.n,
        meter=clique.meter,
        extras={
            "k": k,
            "stretch_bound": 2 * k - 1,
            "sampling_p": p,
            "levels": k,
            "spanner_edges": int(value.sum()) // 2,
            "edges_marked_per_level": per_level,
        },
    )


def baswana_sen_reference(
    graph: Graph,
    k: int,
    *,
    rng: np.random.Generator | None = None,
    seed: int | None = 0,
) -> np.ndarray:
    """Centralised oracle: identical decisions, locally computed products.

    Consumes the shared randomness exactly as :func:`build_spanner` does
    (one ``rng.random(n)`` draw per growing level), so for equal seeds the
    distributed run must match it edge-for-edge.
    """
    if graph.directed:
        raise ValueError("spanners are defined for undirected graphs")
    if k < 1:
        raise ValueError(f"stretch parameter k must be >= 1, got {k}")
    n = graph.n
    rng = resolve_rng(rng, seed)
    live = _live_weights(graph, n)
    center = np.arange(n, dtype=np.int64)
    spanner = np.zeros((n, n), dtype=np.int64)
    p = float(n) ** (-1.0 / k) if k > 1 else 1.0
    for _ in range(1, k):
        sampled = rng.random(n) < p
        dist, wit = MIN_PLUS.matmul_with_witness(live, _membership(center, n))
        center, keep, added = _level_decisions(dist, wit, center, sampled, n)
        spanner |= added
        live = np.where((keep & keep.T) > 0, live, INF)
    dist, wit = MIN_PLUS.matmul_with_witness(live, _membership(center, n))
    spanner |= _final_decisions(dist, wit, center, n)
    return spanner | spanner.T


def spanner_stretch(graph: Graph, spanner_adjacency: np.ndarray) -> float:
    """The worst per-edge multiplicative stretch of a spanner (oracle).

    ``max`` over edges ``(u, v)`` of ``dist_S(u, v) / w(u, v)``; a valid
    ``(2k-1)``-spanner stays at or below ``2k - 1``.  Uses the repo's
    centralised APSP oracle on the spanner subgraph.
    """
    from repro.graphs.reference import apsp_reference

    n = graph.n
    spanner_adjacency = (np.asarray(spanner_adjacency) > 0).astype(np.int64)
    weights = None
    if graph.weights is not None:
        weights = np.where(spanner_adjacency > 0, graph.weights, 0)
    sub = Graph(
        n=n, adjacency=spanner_adjacency, directed=False, weights=weights
    )
    dist = apsp_reference(sub)
    w = graph.weight_matrix()
    us, vs = np.nonzero(graph.adjacency)
    if us.size == 0:
        return 1.0
    return float(np.max(dist[us, vs] / w[us, vs]))


__all__ = ["build_spanner", "baswana_sen_reference", "spanner_stretch"]
