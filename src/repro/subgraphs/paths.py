"""k-path detection via colour coding -- the classic companion to Theorem 3.

Colour coding (Alon-Yuster-Zwick [5]) was invented for *paths*; the paper
uses it for cycles (Lemma 11).  The path variant reuses the identical
machinery: a colourful k-path exists iff ``C([k])[u, v] = 1`` for *any*
pair -- no closing edge required -- so detection costs the same
``2^{O(k)} n^rho log n`` rounds and inherits the same certificate
semantics (positives are sound; completeness w.h.p. under the
``e^k ln(1/eps)`` trial budget).

Included as a worked example of the conclusion's claim that the matmul
toolbox extends to further centralised techniques without new machinery.
"""

from __future__ import annotations

import math

import numpy as np

from repro.clique.model import CongestedClique
from repro.graphs.graphs import Graph
from repro.runtime import (
    RunResult,
    make_clique,
    or_broadcast,
    pad_matrix,
    resolve_rng,
)
from repro.subgraphs.colour_coding import default_trials

# Reuse the Lemma 11 recursion internals for the C(X) matrices.
from repro.subgraphs import colour_coding as _cc


def detect_colourful_path(
    clique: CongestedClique,
    adjacency: np.ndarray,
    colours: np.ndarray,
    k: int,
    *,
    method: str = "bilinear",
    phase: str = "colour-path",
) -> bool:
    """Is there a simple path on ``k`` nodes using each colour exactly once?

    Identical recursion to :func:`~repro.subgraphs.colour_coding
    .detect_colourful_cycle`, with the final certificate being any non-zero
    entry of ``C([k])`` instead of one closed by an edge.
    """
    if k < 2:
        raise ValueError(f"path detection needs k >= 2, got {k}")
    n = clique.n
    a = (np.asarray(adjacency) > 0).astype(np.int64)
    clique.broadcast_rows(colours, widths=[1] * n, phase=f"{phase}/colours")

    # Build C([k]) through the same memoised half-split recursion the cycle
    # detector uses; it depends only on the colour masks and the adjacency.
    full = _build_c_full(clique, a, colours, k, method, phase)
    local_hits = [bool(full[u].any()) for u in range(n)]
    return or_broadcast(clique, local_hits, phase=f"{phase}/verdict")


def _build_c_full(
    clique: CongestedClique,
    a: np.ndarray,
    colours: np.ndarray,
    k: int,
    method: str,
    phase: str,
) -> np.ndarray:
    """Compute ``C([k])`` (paper eq. (3)) -- shared with the cycle detector."""
    from itertools import combinations

    from repro.algebra.semirings import BOOLEAN
    from repro.engine import EngineSession

    session = EngineSession(clique, method, BOOLEAN)
    n = clique.n
    colour_mask = [colours == i for i in range(k)]
    memo: dict[frozenset[int], np.ndarray] = {}

    def cmat(x: frozenset[int]) -> np.ndarray:
        if x in memo:
            return memo[x]
        size = len(x)
        if size == 1:
            (i,) = x
            mat = np.zeros((n, n), dtype=np.int64)
            idx = np.nonzero(colour_mask[i])[0]
            mat[idx, idx] = 1
        elif size == 2:
            i, j = sorted(x)
            mat = np.zeros((n, n), dtype=np.int64)
            for left, right in ((i, j), (j, i)):
                mat |= a * colour_mask[left][:, None] * colour_mask[right][None, :]
        else:
            half = math.ceil(size / 2)
            acc = np.zeros((n, n), dtype=np.int64)
            for y_tuple in combinations(sorted(x), half):
                y = frozenset(y_tuple)
                z = x - y
                left, right = cmat(y), cmat(z)
                if len(z) == 1:
                    (zc,) = z
                    term = session.multiply(
                        left, a * colour_mask[zc][None, :], phase=f"{phase}/prod"
                    )
                elif len(y) == 1:
                    (yc,) = y
                    term = session.multiply(
                        a * colour_mask[yc][:, None], right, phase=f"{phase}/prod"
                    )
                else:
                    t1 = session.multiply(left, a, phase=f"{phase}/prod")
                    term = session.multiply(t1, right, phase=f"{phase}/prod")
                acc |= term
            mat = acc
        memo[x] = mat
        return mat

    return cmat(frozenset(range(k)))


def detect_k_path(
    graph: Graph,
    k: int,
    *,
    method: str = "bilinear",
    trials: int | None = None,
    rng: np.random.Generator | None = None,
    seed: int | None = 0,
    clique: CongestedClique | None = None,
    failure_probability: float = 0.01,
) -> RunResult:
    """Detect a simple path on ``k`` nodes, w.h.p., in 2^{O(k)} n^rho log n rounds.

    Randomness resolution is :func:`repro.runtime.resolve_rng`:
    deterministic by default, ``seed=None`` for the advancing shared stream.
    """
    if k < 2:
        raise ValueError(f"path detection needs k >= 2, got {k}")
    rng = resolve_rng(rng, seed)
    clique = clique or make_clique(graph.n, method)
    a = pad_matrix(graph.adjacency, clique.n)
    budget = trials if trials is not None else max(
        1, math.ceil(math.exp(k) * math.log(1.0 / failure_probability))
    )
    used = 0
    found = False
    for _ in range(budget):
        used += 1
        colours = rng.integers(0, k, size=clique.n)
        if detect_colourful_path(
            clique, a, colours, k, method=method, phase=f"kpath{k}"
        ):
            found = True
            break
    return RunResult(
        value=found,
        rounds=clique.rounds,
        clique_size=clique.n,
        meter=clique.meter,
        extras={"trials_used": used, "trial_budget": budget, "k": k},
    )


__all__ = ["detect_k_path", "detect_colourful_path", "default_trials"]
