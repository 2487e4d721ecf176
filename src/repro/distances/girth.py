"""Girth computation (paper §3.2: Theorem 15 and Corollary 16).

**Undirected** (Theorem 15): fix ``l = ceil(2 + 2/rho)``.  By the
Moore-bound trade-off (Lemma 14, [53]) a graph with more than
``n^{1 + 1/floor(l/2)} + n`` edges has girth at most ``l``; so either the
graph is sparse enough for every node to learn it outright (the Dolev et al.
"learn everything" primitive, ``O(m/n)`` rounds) and compute the girth
locally, or colour-coding detection (Theorem 3) is run for
``k = 3, 4, ..., l`` and the first hit is the girth.

**Directed** (Corollary 16, after Itai-Rodeh): with ``B(i)[u,v] = 1`` iff a
path of some length ``1 <= l <= i`` exists, the recurrence
``B(j+k) = B(j) B(k) or A`` (Boolean products) lets us double until a
diagonal entry appears and then binary-search, using ``O(log n)`` Boolean
products in total -- ``O~(n^rho)`` rounds on the fast engine.

Both return :data:`~repro.constants.INF` for acyclic inputs.

Implementation note: every exchange runs on the simulator's array
collectives -- the sparse branch replicates its edge list through
:meth:`~repro.clique.model.CongestedClique.allgather_rows`, and the Boolean
products of the directed doubling loop run through the matmul engines
(with the semiring engines multiplying directly over the blocked Boolean
kernel of :class:`~repro.algebra.semirings.BooleanSemiring`).
"""

from __future__ import annotations

import math

import numpy as np

from repro.algebra.semirings import BOOLEAN
from repro.clique.model import CongestedClique
from repro.constants import INF, RHO_IMPLEMENTED
from repro.engine import EngineSession
from repro.errors import CliqueModelError
from repro.graphs.graphs import Graph
from repro.graphs.reference import girth_reference
from repro.runtime import (
    RunResult,
    make_clique,
    or_broadcast,
    pad_matrix,
    resolve_rng,
)
from repro.subgraphs.colour_coding import detect_colourful_cycle


def default_cycle_length_cutoff(rho: float = RHO_IMPLEMENTED) -> int:
    """Theorem 15's ``l = ceil(2 + 2/rho)`` for the implemented exponent."""
    return math.ceil(2.0 + 2.0 / rho)


def edge_threshold(n: int, cutoff: int) -> int:
    """Lemma 14's bound: more edges than this forces girth <= cutoff."""
    return int(n ** (1.0 + 1.0 / (cutoff // 2))) + n


def girth_undirected(
    graph: Graph,
    *,
    method: str = "bilinear",
    cutoff: int | None = None,
    trials_per_k: int | None = None,
    rng: np.random.Generator | None = None,
    seed: int | None = 0,
    clique: CongestedClique | None = None,
) -> RunResult:
    """Theorem 15: the undirected girth in ``O~(n^rho)`` rounds.

    Detection per candidate length uses seeded random colourings;
    ``trials_per_k`` defaults to ``ceil(e^k ln n)`` per the paper.  If every
    detection misses (probability ``n^{-Omega(1)}``), the algorithm falls
    back to learning the whole graph -- correctness is never sacrificed,
    only (with tiny probability) the round bound.  Randomness resolution is
    :func:`repro.runtime.resolve_rng` (deterministic by default;
    ``seed=None`` for the advancing shared stream).
    """
    if graph.directed:
        raise ValueError("use girth_directed for directed graphs")
    rng = resolve_rng(rng, seed)
    n = graph.n
    clique = clique or make_clique(n, method)
    cutoff = cutoff if cutoff is not None else default_cycle_length_cutoff()

    # Every node announces its degree; the edge count is then global info.
    degrees = [int(graph.adjacency[v].sum()) if v < n else 0 for v in range(clique.n)]
    received = clique.broadcast_rows(
        degrees, widths=[1] * clique.n, phase="girth/degrees"
    )
    m = sum(received.tolist()) // 2

    if m <= edge_threshold(n, cutoff):
        value = _learn_graph_and_solve(clique, graph)
        return RunResult(
            value=value,
            rounds=clique.rounds,
            clique_size=clique.n,
            meter=clique.meter,
            extras={"branch": "sparse", "edges": m, "cutoff": cutoff},
        )

    a = pad_matrix(graph.adjacency, clique.n)
    # One Boolean session serves every colour-coding trial at every k.
    session = EngineSession(clique, method, BOOLEAN)
    for k in range(3, cutoff + 1):
        budget = (
            trials_per_k
            if trials_per_k is not None
            else max(1, math.ceil(math.exp(k) * math.log(max(2, n))))
        )
        for _ in range(budget):
            colours = rng.integers(0, k, size=clique.n)
            if detect_colourful_cycle(
                clique, a, colours, k, session=session, phase=f"girth/k{k}"
            ):
                return RunResult(
                    value=k,
                    rounds=clique.rounds,
                    clique_size=clique.n,
                    meter=clique.meter,
                    extras={"branch": "dense", "edges": m, "cutoff": cutoff},
                )
    # All detections missed (w.p. n^{-Omega(1)}): fall back to learning the
    # graph so the returned girth is always correct.
    value = _learn_graph_and_solve(clique, graph)
    return RunResult(
        value=value,
        rounds=clique.rounds,
        clique_size=clique.n,
        meter=clique.meter,
        extras={"branch": "dense-fallback", "edges": m, "cutoff": cutoff},
    )


def _learn_graph_and_solve(clique: CongestedClique, graph: Graph) -> int:
    """Replicate the edge list to everyone; each node solves locally.

    Runs on :meth:`~repro.clique.model.CongestedClique.allgather_rows`:
    edges move as one ``(m, 2)`` record array, one word per edge record.
    """
    records = []
    for v in range(clique.n):
        if v < graph.n:
            up = graph.neighbors(v)
            up = up[up > v].astype(np.int64)
        else:
            up = np.zeros(0, dtype=np.int64)
        rec = np.empty((up.shape[0], 2), dtype=np.int64)
        rec[:, 0] = v
        rec[:, 1] = up
        records.append(rec)
    all_edges = clique.allgather_rows(
        records, words_per_record=1, phase="girth/learn-graph"
    )
    # An edge record is a node pair u < v; one a fault layer corrupted
    # must not reach the local graph build.
    u, v = all_edges[:, 0], all_edges[:, 1]
    if not np.all((0 <= u) & (u < v) & (v < graph.n)):
        raise CliqueModelError(
            f"phase girth/learn-graph delivered an edge record outside "
            f"0 <= u < v < {graph.n}"
        )
    local = Graph.from_edges(graph.n, all_edges)
    return girth_reference(local)


def girth_directed(
    graph: Graph,
    *,
    method: str = "bilinear",
    clique: CongestedClique | None = None,
) -> RunResult:
    """Corollary 16: the directed girth in ``O~(n^rho)`` rounds."""
    if not graph.directed:
        raise ValueError("use girth_undirected for undirected graphs")
    n = graph.n
    clique = clique or make_clique(n, method)
    session = EngineSession(clique, method, BOOLEAN)
    a = pad_matrix(graph.adjacency, clique.n)

    def has_cycle(b: np.ndarray) -> bool:
        local = [bool(b[v, v]) for v in range(clique.n)]
        return or_broadcast(clique, local, phase="girth-dir/diag")

    products = 0
    if has_cycle(a):  # girth 1 would be a self-loop; Graph forbids them,
        # but B(1) = A keeps the search uniform.
        return _finish(clique, 1, products)

    # Doubling: B(2^s) until a cycle shows or the powers exceed n (acyclic).
    powers = {0: a}  # powers[s] = B(2^s)
    s = 0
    while True:
        b_next = _bool_or_a(
            session.square(powers[s], phase="girth-dir/double"), a
        )
        products += 1
        s += 1
        powers[s] = b_next
        if has_cycle(b_next):
            break
        if (1 << s) >= n:
            return _finish(clique, INF, products)

    # Binary search in (2^{s-1}, 2^s]: grow `cur` by decreasing powers while
    # the composition stays cycle-free; the girth is cur + 1.
    cur = 1 << (s - 1)
    b_cur = powers[s - 1]
    for step in range(s - 2, -1, -1):
        candidate = _bool_or_a(
            session.multiply(b_cur, powers[step], phase="girth-dir/search"), a
        )
        products += 1
        if not has_cycle(candidate):
            cur += 1 << step
            b_cur = candidate
    return _finish(clique, cur + 1, products)


def _bool_or_a(b: np.ndarray, a: np.ndarray) -> np.ndarray:
    return ((b + a) > 0).astype(np.int64)


def _finish(clique: CongestedClique, value: int, products: int) -> RunResult:
    return RunResult(
        value=value,
        rounds=clique.rounds,
        clique_size=clique.n,
        meter=clique.meter,
        extras={"boolean_products": products},
    )


__all__ = [
    "girth_undirected",
    "girth_directed",
    "default_cycle_length_cutoff",
    "edge_threshold",
]
