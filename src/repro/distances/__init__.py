"""Distance computation: girth and the APSP family (paper §3.2-3.3)."""

from repro.distances.approx import apsp_approx, default_delta
from repro.distances.apsp import apsp_exact
from repro.distances.bottleneck import (
    apsp_bottleneck,
    bottleneck_reference,
    validate_bottleneck_routing,
)
from repro.distances.bounded import (
    apsp_bounded,
    apsp_small_diameter,
    apsp_up_to,
    reachability,
)
from repro.distances.girth import (
    default_cycle_length_cutoff,
    edge_threshold,
    girth_directed,
    girth_undirected,
)
from repro.distances.properties import (
    diameter_approx,
    diameter_exact,
    diameter_unweighted,
)
from repro.distances.seidel import apsp_unweighted

__all__ = [
    "apsp_exact",
    "apsp_unweighted",
    "apsp_bounded",
    "apsp_small_diameter",
    "apsp_up_to",
    "apsp_approx",
    "apsp_bottleneck",
    "bottleneck_reference",
    "validate_bottleneck_routing",
    "default_delta",
    "reachability",
    "girth_undirected",
    "girth_directed",
    "default_cycle_length_cutoff",
    "edge_threshold",
    "diameter_exact",
    "diameter_unweighted",
    "diameter_approx",
]
