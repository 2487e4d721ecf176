"""repro -- a reproduction of "Algebraic Methods in the Congested Clique".

Censor-Hillel, Kaski, Korhonen, Lenzen, Paz, Suomela (PODC 2015,
arXiv:1503.04963).

The package layers:

* :mod:`repro.clique` -- the metered congested-clique simulator (the
  substrate: rounds, Lenzen routing, broadcast).
* :mod:`repro.algebra` -- semirings, bilinear algorithms (Strassen and its
  Kronecker powers), capped polynomial rings.
* :mod:`repro.matmul` -- the paper's Theorem 1: ``O(n^{1/3})`` semiring and
  ``O(n^{1-2/sigma})`` ring matrix multiplication, distance products and
  witness detection.
* :mod:`repro.subgraphs` / :mod:`repro.distances` -- every application in
  the paper: cycle counting/detection, constant-round 4-cycle detection,
  girth, the APSP family.
* :mod:`repro.spanning` -- spanner and O(1)-round MST workloads riding the
  engine-session API (Parter--Yogev, Jurdzinski--Nowicki).
* :mod:`repro.baselines` -- prior work (Dolev et al.) for the Table 1
  comparisons; :mod:`repro.analysis` -- the measured Table 1 behind
  ``python -m repro table1``.

Quickstart::

    import numpy as np
    from repro import CongestedClique, bilinear_matmul

    n = 49
    clique = CongestedClique(n)
    s = np.random.default_rng(0).integers(0, 10, (n, n))
    t = np.random.default_rng(1).integers(0, 10, (n, n))
    p = bilinear_matmul(clique, s, t)       # P = S T, distributed
    print(clique.rounds)                    # the communication bill
"""

from repro.clique import CongestedClique
from repro.clique.broadcast_clique import (
    BroadcastCongestedClique,
    broadcast_clique_matmul,
)
from repro.constants import INF, OMEGA_BEST, RHO_IMPLEMENTED, RHO_PAPER, SIGMA_STRASSEN
from repro.algebra import (
    BOOLEAN,
    MAX_MIN,
    MIN_PLUS,
    PLUS_TIMES,
    STRASSEN,
    BilinearAlgorithm,
    classical,
    strassen_power,
)
from repro.matmul import (
    approx_distance_product,
    bilinear_matmul,
    broadcast_matmul,
    distance_product,
    distance_product_ring,
    find_witnesses,
    next_cube,
    next_square,
    semiring_matmul,
)
from repro.graphs import Graph
from repro.runtime import RunResult, make_clique, required_clique_size
from repro.subgraphs import (
    count_five_cycles,
    count_four_cycles,
    count_triangles,
    detect_four_cycles,
    detect_k_cycle,
    detect_k_path,
)
from repro.distances import (
    apsp_approx,
    apsp_bottleneck,
    apsp_bounded,
    apsp_exact,
    apsp_small_diameter,
    apsp_unweighted,
    diameter_exact,
    diameter_unweighted,
    girth_directed,
    girth_undirected,
)
from repro.spanning import (
    baswana_sen_reference,
    build_spanner,
    minimum_spanning_forest,
    mst_reference,
    spanner_stretch,
)
from repro.baselines import dolev_four_cycle_detect, dolev_triangle_count
from repro.analysis import format_table1, run_table1
from repro.serve import (
    BatchingServer,
    ClosureArtifact,
    QueryEngine,
    apply_edge_updates,
)

__version__ = "1.0.0"

__all__ = [
    # substrate
    "CongestedClique",
    "RunResult",
    "make_clique",
    "required_clique_size",
    # constants
    "INF",
    "OMEGA_BEST",
    "RHO_PAPER",
    "RHO_IMPLEMENTED",
    "SIGMA_STRASSEN",
    # algebra
    "PLUS_TIMES",
    "BOOLEAN",
    "MIN_PLUS",
    "MAX_MIN",
    "BilinearAlgorithm",
    "STRASSEN",
    "classical",
    "strassen_power",
    # matmul
    "semiring_matmul",
    "bilinear_matmul",
    "broadcast_matmul",
    "distance_product",
    "distance_product_ring",
    "approx_distance_product",
    "find_witnesses",
    "next_cube",
    "next_square",
    # graphs
    "Graph",
    # applications
    "count_triangles",
    "count_four_cycles",
    "count_five_cycles",
    "detect_k_cycle",
    "detect_k_path",
    "detect_four_cycles",
    "apsp_exact",
    "apsp_unweighted",
    "apsp_bounded",
    "apsp_small_diameter",
    "apsp_approx",
    "apsp_bottleneck",
    "diameter_exact",
    "diameter_unweighted",
    "girth_undirected",
    "girth_directed",
    # spanning workloads
    "build_spanner",
    "baswana_sen_reference",
    "spanner_stretch",
    "minimum_spanning_forest",
    "mst_reference",
    # model variants
    "BroadcastCongestedClique",
    "broadcast_clique_matmul",
    # baselines & analysis
    "dolev_triangle_count",
    "dolev_four_cycle_detect",
    "run_table1",
    "format_table1",
    # serving layer
    "ClosureArtifact",
    "QueryEngine",
    "BatchingServer",
    "apply_edge_updates",
]
