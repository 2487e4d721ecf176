"""Tests for graph containers and workload generators."""

from __future__ import annotations

import numpy as np
import pytest
from graph_reference import has_k_cycle_reference
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constants import INF
from repro.graphs import (
    Graph,
    bipartite_random_graph,
    cycle_graph,
    cycle_with_trees,
    gnp_random_graph,
    grid_graph,
    planted_cycle_graph,
    preferential_attachment_graph,
    random_tree,
    random_weighted_digraph,
    random_weighted_graph,
    windmill_graph,
)
from repro.graphs.reference import girth_reference


class TestGraphContainer:
    def test_from_edges(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2)])
        assert g.edge_count == 2
        assert g.adjacency[1, 0] == 1  # symmetric closure

    def test_directed_edges_not_mirrored(self):
        g = Graph.from_edges(3, [(0, 1)], directed=True)
        assert g.adjacency[0, 1] == 1
        assert g.adjacency[1, 0] == 0

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            Graph.from_edges(3, [(1, 1)])

    def test_asymmetric_undirected_rejected(self):
        adj = np.zeros((3, 3), dtype=np.int64)
        adj[0, 1] = 1
        with pytest.raises(ValueError):
            Graph(n=3, adjacency=adj, directed=False)

    def test_diagonal_rejected(self):
        adj = np.eye(3, dtype=np.int64)
        with pytest.raises(ValueError):
            Graph(n=3, adjacency=adj)

    def test_weight_matrix_conventions(self):
        g = Graph.from_weighted_edges(3, [(0, 1, 5)])
        w = g.weight_matrix()
        assert w[0, 1] == 5
        assert w[1, 0] == 5
        assert w[0, 2] == INF
        assert w[0, 0] == 0

    def test_unweighted_weight_matrix_is_unit(self):
        g = Graph.from_edges(3, [(0, 2)])
        w = g.weight_matrix()
        assert w[0, 2] == 1

    def test_edges_canonical(self):
        g = Graph.from_edges(4, [(2, 1), (0, 3)])
        assert sorted(g.edges()) == [(0, 3), (1, 2)]

    def test_degrees_and_neighbors(self):
        g = Graph.from_edges(4, [(0, 1), (0, 2)])
        assert g.degrees().tolist() == [2, 1, 1, 0]
        assert g.neighbors(0).tolist() == [1, 2]

    def test_max_abs_weight(self):
        g = Graph.from_weighted_edges(3, [(0, 1, -7)], directed=True)
        assert g.max_abs_weight() == 7


class TestGenerators:
    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=0, max_value=1000))
    def test_gnp_valid(self, seed):
        g = gnp_random_graph(20, 0.3, seed=seed)
        assert np.array_equal(g.adjacency, g.adjacency.T)
        assert not np.any(np.diag(g.adjacency))

    def test_gnp_deterministic(self):
        a = gnp_random_graph(15, 0.4, seed=3)
        b = gnp_random_graph(15, 0.4, seed=3)
        assert np.array_equal(a.adjacency, b.adjacency)

    def test_tree_is_acyclic(self):
        g = random_tree(25, seed=1)
        assert g.edge_count == 24
        assert girth_reference(g) >= INF

    def test_cycle_graph_girth(self):
        assert girth_reference(cycle_graph(9)) == 9

    @settings(max_examples=10, deadline=None)
    @given(
        st.integers(min_value=0, max_value=1000),
        st.integers(min_value=3, max_value=8),
    )
    def test_planted_cycle_present(self, seed, k):
        g = planted_cycle_graph(20, k, seed=seed, extra_edge_prob=0.5)
        assert has_k_cycle_reference(g, k)
        # Tree attachments cannot create shorter cycles.
        assert girth_reference(g) == k

    def test_windmill_has_no_c4(self):
        g = windmill_graph(21)
        assert girth_reference(g) == 3
        assert not has_k_cycle_reference(g, 4)

    def test_bipartite_has_no_odd_cycles(self):
        g = bipartite_random_graph(20, 0.5, seed=2)
        assert not has_k_cycle_reference(g, 3)
        assert not has_k_cycle_reference(g, 5)

    def test_cycle_with_trees_girth(self):
        g = cycle_with_trees(25, 6, seed=0)
        assert girth_reference(g) == 6

    def test_weighted_digraph_weights_in_range(self):
        g = random_weighted_digraph(15, 0.4, 9, seed=1)
        edge = g.adjacency == 1
        assert g.weights[edge].min() >= 1
        assert g.weights[edge].max() <= 9
        assert g.directed

    def test_weighted_graph_symmetric(self):
        g = random_weighted_graph(12, 0.4, 9, seed=1)
        assert np.array_equal(g.weights, g.weights.T)

    def test_grid_graph_structure(self):
        g = grid_graph(3, 4, max_weight=5, seed=0)
        assert g.n == 12
        assert g.edge_count == 3 * 3 + 2 * 4  # horizontal + vertical

    def test_preferential_attachment_connected_ish(self):
        g = preferential_attachment_graph(30, attach=2, seed=3)
        assert g.degrees().max() >= 4  # a hub emerges

    def test_planted_cycle_validates_k(self):
        with pytest.raises(ValueError):
            planted_cycle_graph(5, 9)
