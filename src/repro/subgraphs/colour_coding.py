"""k-cycle detection via colour coding (paper Lemma 11 + Theorem 3).

Given a colouring ``c : V -> [k]``, the matrices ``C(X)`` (Boolean; entry
``(u, v)`` set iff some path u ~> v of length ``|X| - 1`` uses each colour of
``X`` exactly once) satisfy the half-split recursion (paper eq. (3)):

    C(X) = OR over Y subset X, |Y| = ceil(|X|/2) of  C(Y) . A . C(X \\ Y)

with ``C({i})`` the diagonal indicator of colour ``i``.  A colourful k-cycle
exists iff ``C([k])[u, v] = 1`` for some edge ``(v, u)``.  Products are
Boolean (integer product + threshold) on the fast §2.2 engine, giving
``O(3^k n^rho)`` rounds per colouring; trying ``e^k ln(1/eps)`` random
colourings yields detection w.h.p. (Theorem 3's ``2^{O(k)} n^rho log n``).

Two constant-factor notes (asymptotics unchanged, see DESIGN.md):

* ``C(X)`` for singleton ``X`` is a colour mask and for ``|X| = 2`` is a
  row/column-masked copy of ``A``; both are local (zero rounds), so the
  first distributed product appears at ``|X| >= 3``.
* Detection is *certified*: a reported cycle follows from a genuine product
  chain, so false positives are impossible; only completeness is
  probabilistic (the paper derandomises with k-perfect hash families, which
  we replace by seeded trials -- the trial count is the same).
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np

from repro.algebra.semirings import BOOLEAN
from repro.clique.model import CongestedClique
from repro.engine import EngineSession
from repro.graphs.graphs import Graph
from repro.runtime import (
    RunResult,
    make_clique,
    or_broadcast,
    pad_matrix,
    resolve_rng,
)


def default_trials(k: int, n: int, failure_probability: float = 0.01) -> int:
    """Paper trial budget: ``ceil(e^k ln(1/eps))`` random colourings."""
    if k < 3:
        raise ValueError(f"cycles need k >= 3, got {k}")
    return max(1, math.ceil(math.exp(k) * math.log(1.0 / failure_probability)))


def detect_colourful_cycle(
    clique: CongestedClique,
    adjacency: np.ndarray,
    colours: np.ndarray,
    k: int,
    *,
    method: str = "bilinear",
    session: EngineSession | None = None,
    phase: str = "colour-coding",
) -> bool:
    """Lemma 11: is there a cycle using each of the ``k`` colours once?

    ``adjacency`` is the (padded) 0/1 matrix, ``colours[v] in [0, k)`` the
    nodes' colours (padded nodes may carry any colour -- they have no edges).
    Callers running many trials pass one bound Boolean ``session`` so every
    product shares its cached plans.
    """
    n = clique.n
    session = session or EngineSession(clique, method, BOOLEAN)
    a = (np.asarray(adjacency) > 0).astype(np.int64)
    # Nodes announce their colours once so every node can build the masks.
    clique.broadcast_rows(colours, widths=[1] * n, phase=f"{phase}/colours")
    full = colourful_path_matrix(session, a, colours, k, phase=phase)
    # Node u checks C([k])[u, v] = 1 with (v, u) an edge.  Row u of C is
    # local; A[v, u] equals A[u, v] for undirected graphs, and for directed
    # graphs the nodes exchange the adjacency transpose in one round.
    if _needs_transpose(a):
        closing = clique.transpose_array(
            a, words_per_entry=1, phase=f"{phase}/transpose"
        )
    else:
        closing = a
    local_hits = [bool(np.any(full[u] & closing[u])) for u in range(n)]
    return or_broadcast(clique, local_hits, phase=f"{phase}/verdict")


def colourful_path_matrix(
    session: EngineSession,
    a: np.ndarray,
    colours: np.ndarray,
    k: int,
    *,
    phase: str,
) -> np.ndarray:
    """``C([k])`` (paper eq. (3)) by the memoised half-split recursion.

    ``a`` is the 0/1 ``int64`` adjacency and ``colours`` the broadcast
    colouring; every distributed product runs on ``session`` under
    ``{phase}/prod``.  Entry ``(u, v)`` is set iff a path ``u ~> v`` uses
    each colour of ``[k]`` exactly once -- the k-cycle detector closes it
    with an edge, the k-path detector reads it as it is.
    """
    n = a.shape[0]
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
            # C({i}) A C({j}) + C({j}) A C({i}): colourful paths of length 1.
            mat = np.zeros((n, n), dtype=np.int64)
            for left, right in ((i, j), (j, i)):
                masked = a * colour_mask[left][:, None] * colour_mask[right][None, :]
                mat |= masked
        else:
            half = math.ceil(size / 2)
            acc = np.zeros((n, n), dtype=np.int64)
            elements = sorted(x)
            for y_tuple in combinations(elements, half):
                y = frozenset(y_tuple)
                z = x - y
                left = cmat(y)
                right = cmat(z)
                if len(z) == 1:
                    (zc,) = z
                    # A C(z) is a column-masked A: one product suffices.
                    middle = a * colour_mask[zc][None, :]
                    term = session.multiply(left, middle, phase=f"{phase}/prod")
                elif len(y) == 1:
                    (yc,) = y
                    middle = a * colour_mask[yc][:, None]
                    term = session.multiply(middle, right, phase=f"{phase}/prod")
                else:
                    t1 = session.multiply(left, a, phase=f"{phase}/prod")
                    term = session.multiply(t1, right, phase=f"{phase}/prod")
                acc |= term
            mat = acc
        memo[x] = mat
        return mat

    return cmat(frozenset(range(k)))


def _needs_transpose(a: np.ndarray) -> bool:
    return not np.array_equal(a, a.T)


def detect_k_cycle(
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
    """Theorem 3: detect a ``k``-cycle w.h.p. in ``2^{O(k)} n^rho log n`` rounds.

    Soundness is unconditional (``value=True`` certifies a cycle);
    completeness holds with probability ``>= 1 - failure_probability`` under
    the default trial budget.

    Randomness follows :func:`repro.runtime.resolve_rng`: deterministic by
    default (``seed=0``), while ``seed=None`` draws from the shared
    module-level stream so *repeated* trial batches explore fresh
    colourings -- the ``e^k ln(1/eps)`` budget then buys real coverage
    across calls instead of replaying the first batch.
    """
    if k < 3:
        raise ValueError(f"cycles need k >= 3, got {k}")
    rng = resolve_rng(rng, seed)
    clique = clique or make_clique(graph.n, method)
    session = EngineSession(clique, method, BOOLEAN)
    a = pad_matrix(graph.adjacency, clique.n)
    budget = trials if trials is not None else default_trials(
        k, graph.n, failure_probability
    )
    used = 0
    found = False
    for _ in range(budget):
        used += 1
        colours = rng.integers(0, k, size=clique.n)
        if detect_colourful_cycle(
            clique, a, colours, k, session=session, phase=f"kcycle{k}"
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


__all__ = [
    "detect_k_cycle",
    "detect_colourful_cycle",
    "colourful_path_matrix",
    "default_trials",
]
