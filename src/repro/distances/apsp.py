"""Exact weighted APSP via iterated distance-product squaring (Corollary 6).

``W^n`` over the min-plus semiring holds all shortest-path distances; it is
reached with ``ceil(log2 n)`` squarings, each an ``O(n^{1/3})``-round
semiring product (Theorem 1), for ``O(n^{1/3} log n)`` rounds in total (the
``dlog M / log ne`` width factor is metered automatically from the entry
magnitudes).  One bound min-plus session carries every squaring on cached
plans.

Routing tables (§3.3 "constructing routing tables"): the semiring engine
returns witness matrices for free (local arg-min), and the table is updated
by ``R[u, v] <- R[u, Q[u, v]]`` whenever the squaring improves a distance --
a purely node-local update, since row ``u`` of ``R``, ``Q`` and the new
distances all live at node ``u``.  That witnessed loop is the session's
resident closure (:meth:`repro.engine.EngineSession.resident_closure`);
without routing tables the plain :meth:`~repro.engine.EngineSession.closure`
runs, which ships no witnesses and so bills fewer rounds.

Negative integer weights are allowed (Table 1: weights in
``{0, +-1, ..., +-M}``); both session loops raise
:class:`~repro.errors.NegativeCycleError` when a diagonal entry drops below
zero.  A weight so heavy that an ``n - 1``-edge path could reach ``INF`` is
refused up front (:func:`~repro.constants.check_path_weight`).
"""

from __future__ import annotations

from repro.algebra.semirings import MIN_PLUS
from repro.clique.model import CongestedClique
from repro.constants import INF, check_path_weight
from repro.engine import EngineSession, default_steps
from repro.graphs.graphs import Graph
from repro.runtime import RunResult, make_clique, pad_matrix


def apsp_exact(
    graph: Graph,
    *,
    with_routing_tables: bool = True,
    method: str = "semiring",
    clique: CongestedClique | None = None,
) -> RunResult:
    """Corollary 6: exact APSP (+ routing tables) for integer weights.

    Returns distances (``value``), with ``extras["next_hop"]`` holding the
    routing table when requested: ``next_hop[u, v]`` is the first hop of a
    shortest ``u -> v`` path (``-1`` if unreachable or ``u == v``).

    ``method`` selects a selection-semiring engine (``"semiring"`` --
    Theorem 1's ``O(n^{1/3})`` engine -- or the ``"naive"`` baseline); the
    bilinear engine cannot run min-plus directly (see Lemma 18/20 for the
    ring embeddings).
    """
    n = graph.n
    check_path_weight(graph.max_abs_weight(), n, "edge weight")
    clique = clique or make_clique(n, method)
    session = EngineSession(clique, method, MIN_PLUS)
    weights = pad_matrix(graph.weight_matrix(), clique.n, fill=INF)
    iterations = default_steps(n)
    extras: dict[str, object] = {}
    if with_routing_tables:
        state = session.seed_resident(weights)
        session.resident_closure(
            steps=iterations, phase="apsp", step_label="square"
        )
        dist = state.dist
        extras["next_hop"] = state.routing_table(n)
    else:
        dist = session.closure(
            weights, steps=iterations, phase="apsp", step_label="square"
        )
    extras["squarings"] = session.last_squarings
    return RunResult(
        value=dist[:n, :n],
        rounds=clique.rounds,
        clique_size=clique.n,
        meter=clique.meter,
        extras=extras,
    )


__all__ = ["apsp_exact"]
