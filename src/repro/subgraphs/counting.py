"""Cycle counting via matrix powers (paper §3.1, Corollary 2).

Triangles (Itai-Rodeh [42]): the number of triangles is ``tr(A^3)/6``
(undirected) or ``tr(A^3)/3`` (directed).  4-cycles (Alon-Yuster-Zwick [6]):

    undirected:  c4 = [tr(A^4) - sum_v (2 deg(v)^2 - deg(v))] / 8
    directed:    c4 = [tr(A^4) - sum_v (2 delta(v)^2 - delta(v))] / 4

where ``delta(v)`` counts mutual neighbours.  As an extension we include the
5-cycle formula from the same paper (the paper notes such formulas exist for
k in {5, 6, 7} and omits them):

    c5 = [tr(A^5) - 5 tr(A^3) - 5 sum_v (deg(v) - 2) (A^3)_vv] / 10.

All of these need one or two distributed matrix products plus local work and
``O(1)`` broadcast/transpose rounds, so the round complexity is dominated by
the product: ``O(n^rho)`` with the §2.2 engine -- the Table 1 rows "triangle
counting" and "4-cycle counting".

Traces are computed without ever centralising a matrix: node ``v``'s
diagonal entry ``(A^k)_vv`` is an inner product of its own row with a column
obtained through the one-round transpose primitive, and the partial traces
are combined with a single broadcast.
"""

from __future__ import annotations

import numpy as np

from repro.clique.messages import max_abs, words_for_value
from repro.clique.model import CongestedClique
from repro.engine import EngineSession
from repro.graphs.graphs import Graph
from repro.runtime import (
    RunResult,
    make_clique,
    pad_matrix,
    sum_broadcast,
)


def _transpose_matrix(
    clique: CongestedClique, matrix: np.ndarray, phase: str
) -> np.ndarray:
    """Distribute column ``v`` to node ``v`` via the transpose primitive."""
    width = words_for_value(max_abs(matrix), clique.word_bits)
    return clique.transpose_array(matrix, words_per_entry=width, phase=phase)


def count_triangles(
    graph: Graph,
    *,
    method: str = "bilinear",
    clique: CongestedClique | None = None,
) -> RunResult:
    """Corollary 2: the number of triangles, in ``O(n^rho)`` rounds."""
    clique = clique or make_clique(graph.n, method)
    session = EngineSession(clique, method)
    a = pad_matrix(graph.adjacency, clique.n)
    a_sq = session.square(a, phase="triangles/A2")
    if graph.directed:
        columns = _transpose_matrix(clique, a, phase="triangles/transpose-A")
        local = [int(a_sq[v] @ columns[v]) for v in range(clique.n)]
        divisor = 3
    else:
        local = [int(a_sq[v] @ a[v]) for v in range(clique.n)]
        divisor = 6
    trace = sum_broadcast(clique, local, phase="triangles/trace", words=3)
    return RunResult(
        value=trace // divisor,
        rounds=clique.rounds,
        clique_size=clique.n,
        meter=clique.meter,
        extras={"trace_a3": trace, "method": method},
    )


def count_four_cycles(
    graph: Graph,
    *,
    method: str = "bilinear",
    clique: CongestedClique | None = None,
) -> RunResult:
    """Corollary 2: the number of 4-cycles, in ``O(n^rho)`` rounds."""
    clique = clique or make_clique(graph.n, method)
    session = EngineSession(clique, method)
    a = pad_matrix(graph.adjacency, clique.n)
    a_sq = session.square(a, phase="four-cycles/A2")
    if graph.directed:
        sq_columns = _transpose_matrix(
            clique, a_sq, phase="four-cycles/transpose-A2"
        )
        a_columns = _transpose_matrix(clique, a, phase="four-cycles/transpose-A")
        local_tr = [int(a_sq[v] @ sq_columns[v]) for v in range(clique.n)]
        # delta(v): nodes u with both (u, v) and (v, u) present.
        local_corr = []
        for v in range(clique.n):
            delta = int((a[v] * a_columns[v]).sum())
            local_corr.append(2 * delta * delta - delta)
        divisor = 4
    else:
        local_tr = [int(a_sq[v] @ a_sq[v]) for v in range(clique.n)]
        local_corr = []
        for v in range(clique.n):
            deg = int(a[v].sum())
            local_corr.append(2 * deg * deg - deg)
        divisor = 8
    trace4 = sum_broadcast(clique, local_tr, phase="four-cycles/trace", words=4)
    correction = sum_broadcast(
        clique, local_corr, phase="four-cycles/correction", words=4
    )
    return RunResult(
        value=(trace4 - correction) // divisor,
        rounds=clique.rounds,
        clique_size=clique.n,
        meter=clique.meter,
        extras={"trace_a4": trace4, "correction": correction, "method": method},
    )


def count_five_cycles(
    graph: Graph,
    *,
    method: str = "bilinear",
    clique: CongestedClique | None = None,
) -> RunResult:
    """Extension: undirected 5-cycle counting (Alon-Yuster-Zwick formula).

    Two distributed products (``A^2``, then ``A^3 = A^2 A``), one transpose
    and two broadcasts: still ``O(n^rho)`` rounds.
    """
    if graph.directed:
        raise ValueError("the 5-cycle trace formula implemented is undirected-only")
    clique = clique or make_clique(graph.n, method)
    session = EngineSession(clique, method)
    a = pad_matrix(graph.adjacency, clique.n)
    a_sq = session.square(a, phase="five-cycles/A2")
    a_cu = session.multiply(a_sq, a, phase="five-cycles/A3")
    cu_columns = _transpose_matrix(clique, a_cu, phase="five-cycles/transpose-A3")
    local_tr5 = [int(a_sq[v] @ cu_columns[v]) for v in range(clique.n)]
    local_mix = []
    for v in range(clique.n):
        deg = int(a[v].sum())
        diag3 = int(a_cu[v, v])
        local_mix.append(5 * diag3 + 5 * (deg - 2) * diag3)
    trace5 = sum_broadcast(clique, local_tr5, phase="five-cycles/trace", words=5)
    mix = sum_broadcast(clique, local_mix, phase="five-cycles/mix", words=5)
    # tr(A^3) = sum_v (A^3)_vv appears inside `mix` with coefficient 5.
    return RunResult(
        value=(trace5 - mix) // 10,
        rounds=clique.rounds,
        clique_size=clique.n,
        meter=clique.meter,
        extras={"trace_a5": trace5, "method": method},
    )


__all__ = ["count_triangles", "count_four_cycles", "count_five_cycles"]
