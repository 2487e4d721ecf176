"""Connected components via Boolean transitive closure.

Not a headline result of the paper, but the natural first consumer of its
Boolean matrix-multiplication machinery: the reachability matrix
(``O(log n)`` Boolean squarings, ``O~(n^rho)`` rounds on the §2.2 engine)
immediately yields connected components -- each node labels itself with the
smallest node id it can reach, entirely locally from its reachability row.
Contrast with the ``O(log log n)`` MST-based component algorithms [51] the
related-work section discusses: this is the *algebraic* route.
"""

from __future__ import annotations

import numpy as np

from repro.algebra.semirings import BOOLEAN
from repro.clique.model import CongestedClique
from repro.distances.bounded import reachability
from repro.engine import EngineSession
from repro.graphs.graphs import Graph
from repro.runtime import RunResult, make_clique, pad_matrix


def connected_components(
    graph: Graph,
    *,
    method: str = "bilinear",
    clique: CongestedClique | None = None,
) -> RunResult:
    """Component labels (smallest reachable id) in ``O~(n^rho)`` rounds.

    For directed inputs this computes *weakly* connected components (the
    closure of the symmetrised adjacency), the standard convention.
    """
    n = graph.n
    clique = clique or make_clique(n, method)
    session = EngineSession(clique, method, BOOLEAN)
    adjacency = graph.adjacency
    if graph.directed:
        adjacency = ((adjacency + adjacency.T) > 0).astype(np.int64)
    padded = pad_matrix(adjacency, clique.n)
    reach = reachability(clique, padded, session=session, phase="components")
    labels = np.array(
        [int(np.nonzero(reach[v])[0].min()) for v in range(n)], dtype=np.int64
    )
    count = len(set(labels.tolist()))
    return RunResult(
        value=labels,
        rounds=clique.rounds,
        clique_size=clique.n,
        meter=clique.meter,
        extras={"component_count": count},
    )


__all__ = ["connected_components"]
