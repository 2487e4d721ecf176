"""Unweighted undirected APSP by Seidel's algorithm (Corollary 7).

The recursion (Lemma 17, [65]): square the graph (one Boolean product),
solve APSP on ``G^2`` recursively, and recover the parity of each distance
from the integer product ``S = D A``:

    d_G(u, v) = 2 d_{G^2}(u, v) - [ S[u,v] < d_{G^2}(u,v) * deg_G(v) ].

Each level costs one Boolean and one integer product (``O(n^rho)`` rounds on
the §2.2 engine) plus a degree broadcast; the recursion depth is
``O(log n)`` because the diameter halves, giving ``O~(n^rho)`` total --
Table 1's "unweighted, undirected APSP" row.

Disconnected inputs are handled: once the recursion bottoms out, ``G^k`` is
a disjoint union of cliques and cross-component entries stay ``INF``;
infinite entries are masked to 0 inside the parity product, which is safe
because ``S[u, v]`` is only consulted for same-component pairs, whose
contributing terms are all finite.
"""

from __future__ import annotations

import numpy as np

from repro.algebra.semirings import BOOLEAN, PLUS_TIMES
from repro.clique.model import CongestedClique
from repro.constants import INF
from repro.engine import EngineSession
from repro.errors import CliqueModelError
from repro.graphs.graphs import Graph
from repro.runtime import (
    RunResult,
    make_clique,
    or_broadcast,
    pad_matrix,
)


def apsp_unweighted(
    graph: Graph,
    *,
    method: str = "bilinear",
    clique: CongestedClique | None = None,
) -> RunResult:
    """Corollary 7: exact unweighted undirected APSP in ``O~(n^rho)`` rounds."""
    if graph.directed:
        raise ValueError("Seidel's algorithm needs an undirected graph")
    n = graph.n
    clique = clique or make_clique(n, method)
    a = pad_matrix(graph.adjacency, clique.n)
    depth_box = {"levels": 0}
    # Two sessions on one clique/meter: the recursion squares Booleanly and
    # recovers parities with integer products.
    sessions = (
        EngineSession(clique, method, BOOLEAN),
        EngineSession(clique, method, PLUS_TIMES),
    )
    dist = _seidel(clique, a, sessions, depth_box, 0)
    return RunResult(
        value=dist[:n, :n],
        rounds=clique.rounds,
        clique_size=clique.n,
        meter=clique.meter,
        extras={"levels": depth_box["levels"]},
    )


def _seidel(
    clique: CongestedClique,
    a: np.ndarray,
    sessions: tuple[EngineSession, EngineSession],
    depth_box: dict[str, int],
    level: int,
) -> np.ndarray:
    bool_session, int_session = sessions
    n = clique.n
    depth_box["levels"] = max(depth_box["levels"], level + 1)
    # Square the graph: adjacency of G^2 is (A^2 or A) off the diagonal.
    a_sq = bool_session.square(a, phase=f"seidel/L{level}/square")
    a2 = ((a_sq + a) > 0).astype(np.int64)
    np.fill_diagonal(a2, 0)

    # Termination test G == G^2 is a local row check plus a one-bit AND
    # (implemented as OR of the negations).
    local_diff = [bool(np.any(a2[v] != a[v])) for v in range(n)]
    if not or_broadcast(clique, local_diff, phase=f"seidel/L{level}/stable"):
        # G is a union of cliques: distance 1 along edges, INF across.
        dist = np.where(a == 1, 1, INF).astype(np.int64)
        np.fill_diagonal(dist, 0)
        return dist
    # Each level halves every distance, so G^(2^L) is stable once 2^L
    # reaches the diameter (< n): a change reported at level ceil(log2 n)
    # can only be a corrupted stable bit.
    depth_bound = (n - 1).bit_length()
    if level >= depth_bound:
        raise CliqueModelError(
            f"phase seidel/L{level}/stable reported a change at level "
            f"ceil(log2 {n}) = {depth_bound}, where every graph on {n} nodes "
            f"is stable"
        )

    dist2 = _seidel(clique, a2, sessions, depth_box, level + 1)

    # Parity recovery (Lemma 17).  Infinite entries are masked to 0 for the
    # product; they are never consulted (cross-component pairs stay INF).
    finite2 = dist2 < INF
    d_for_product = np.where(finite2, dist2, 0)
    s = int_session.multiply(
        d_for_product, a, phase=f"seidel/L{level}/parity"
    )
    deg_row = clique.broadcast_rows(
        a.sum(axis=1), widths=[1] * n, phase=f"seidel/L{level}/degrees"
    )

    # Arithmetic on the masked copy avoids overflowing the INF sentinel.
    parity = (s < d_for_product * deg_row[None, :]).astype(np.int64)
    dist = 2 * d_for_product - parity
    dist = np.where(finite2, dist, INF)
    np.fill_diagonal(dist, 0)
    return dist


__all__ = ["apsp_unweighted"]
