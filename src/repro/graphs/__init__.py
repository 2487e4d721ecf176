"""Graph substrate: containers, workload generators, reference oracles."""

from repro.graphs.generators import (
    bipartite_random_graph,
    cycle_graph,
    cycle_with_trees,
    dense_small_girth_graph,
    gnp_random_graph,
    grid_graph,
    planted_cycle_graph,
    preferential_attachment_graph,
    random_tree,
    random_weighted_digraph,
    random_weighted_graph,
    windmill_graph,
)
from repro.graphs.graphs import Graph
from repro.graphs.reference import (
    apsp_reference,
    count_cycles_brute,
    four_cycle_count_reference,
    girth_reference,
    triangle_count_reference,
    validate_routing_table,
)

__all__ = [
    "Graph",
    "gnp_random_graph",
    "random_tree",
    "cycle_graph",
    "planted_cycle_graph",
    "windmill_graph",
    "bipartite_random_graph",
    "cycle_with_trees",
    "dense_small_girth_graph",
    "random_weighted_digraph",
    "random_weighted_graph",
    "grid_graph",
    "preferential_attachment_graph",
    "triangle_count_reference",
    "count_cycles_brute",
    "four_cycle_count_reference",
    "girth_reference",
    "apsp_reference",
    "validate_routing_table",
]
