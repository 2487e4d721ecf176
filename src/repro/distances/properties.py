"""Distance-derived graph properties: eccentricities, diameter, radius.

Once APSP is solved (any of the §3.3 variants), the classical distance
properties are one local reduction plus one broadcast away: node ``v``
computes its eccentricity from its own distance row, broadcasts one word,
and every node folds the extrema locally.  The round cost is therefore
APSP + 1 -- which is how the congested-clique literature states diameter
bounds, and the reason the paper's APSP improvements transfer verbatim to
diameter/radius computation.
"""

from __future__ import annotations

import numpy as np

from repro.clique.model import CongestedClique
from repro.constants import INF
from repro.distances.apsp import apsp_exact
from repro.distances.approx import apsp_approx
from repro.distances.seidel import apsp_unweighted
from repro.graphs.graphs import Graph
from repro.runtime import RunResult


def _fold_eccentricities(
    clique: CongestedClique, distances: np.ndarray, n: int, phase: str
) -> tuple[np.ndarray, int, int]:
    """Per-node eccentricities + global diameter/radius via one broadcast."""
    ecc = []
    for v in range(clique.n):
        if v < n:
            row = distances[v, :n]
            finite = row[row < INF]
            ecc.append(int(finite.max()) if finite.size else 0)
        else:
            ecc.append(-1)  # padded nodes abstain
    received = clique.broadcast_rows(ecc, widths=[1] * clique.n, phase=phase)
    real = received[:n].tolist()
    diameter = max(real) if real else 0
    radius = min(real) if real else 0
    return np.array(real, dtype=np.int64), diameter, radius


def diameter_exact(graph: Graph) -> RunResult:
    """Exact diameter/radius/eccentricities of a weighted graph.

    Cost: Corollary 6 APSP + one broadcast round.  ``value`` is the
    diameter; ``extras`` carries ``radius`` and the eccentricity vector.
    Unreachable pairs are ignored (per-component eccentricities), matching
    the usual convention for possibly-disconnected inputs.
    """
    apsp = apsp_exact(graph, with_routing_tables=False)
    clique_n = apsp.clique_size
    clique = CongestedClique(clique_n)
    clique.meter.phases.extend(apsp.meter.phases)
    padded = np.full((clique_n, clique_n), INF, dtype=np.int64)
    padded[: graph.n, : graph.n] = apsp.value
    ecc, diameter, radius = _fold_eccentricities(
        clique, padded, graph.n, "diameter/fold"
    )
    return RunResult(
        value=diameter,
        rounds=clique.rounds,
        clique_size=clique_n,
        meter=clique.meter,
        extras={"radius": radius, "eccentricities": ecc},
    )


def diameter_unweighted(
    graph: Graph,
    *,
    method: str = "bilinear",
) -> RunResult:
    """Unweighted diameter via Seidel (Corollary 7) + one broadcast."""
    apsp = apsp_unweighted(graph, method=method)
    clique = CongestedClique(apsp.clique_size)
    clique.meter.phases.extend(apsp.meter.phases)
    padded = np.full((clique.n, clique.n), INF, dtype=np.int64)
    padded[: graph.n, : graph.n] = apsp.value
    ecc, diameter, radius = _fold_eccentricities(
        clique, padded, graph.n, "diameter/fold"
    )
    return RunResult(
        value=diameter,
        rounds=clique.rounds,
        clique_size=clique.n,
        meter=clique.meter,
        extras={"radius": radius, "eccentricities": ecc},
    )


def diameter_approx(
    graph: Graph,
    *,
    delta: float | None = None,
) -> RunResult:
    """(1+o(1))-approximate weighted diameter via Theorem 9.

    The broadcast congested clique needs ``Omega~(n)`` rounds for any
    better-than-3/2 diameter approximation (§4 / [31]); in the unicast
    model this inherits Theorem 9's ``O(n^{rho+o(1)})`` with the same
    ``(1 + delta)^{ceil(log n)}`` overestimate bound, reported in extras.
    """
    apsp = apsp_approx(graph, delta=delta)
    clique = CongestedClique(apsp.clique_size)
    clique.meter.phases.extend(apsp.meter.phases)
    padded = np.full((clique.n, clique.n), INF, dtype=np.int64)
    padded[: graph.n, : graph.n] = apsp.value
    ecc, diameter, radius = _fold_eccentricities(
        clique, padded, graph.n, "diameter/fold"
    )
    return RunResult(
        value=diameter,
        rounds=clique.rounds,
        clique_size=clique.n,
        meter=clique.meter,
        extras={
            "radius": radius,
            "eccentricities": ecc,
            "ratio_bound": apsp.extras["ratio_bound"],
        },
    )


__all__ = [
    "diameter_exact",
    "diameter_unweighted",
    "diameter_approx",
]
