"""Tests for connected components via Boolean closure."""

from __future__ import annotations

import numpy as np
import pytest
from graph_reference import components_reference
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distances.components import connected_components
from repro.graphs import Graph, cycle_graph, gnp_random_graph, random_tree


class TestConnectedComponents:
    @settings(max_examples=8, deadline=None)
    @given(
        st.integers(min_value=0, max_value=10**6),
        st.floats(min_value=0.02, max_value=0.3),
    )
    def test_random_graphs(self, seed, p):
        g = gnp_random_graph(18, p, seed=seed)
        result = connected_components(g)
        assert np.array_equal(result.value, components_reference(g))

    @pytest.mark.parametrize("n", [16, 49, 100])
    def test_sparse_random_graphs(self, n):
        """Average degree 2: many components of varied sizes."""
        g = gnp_random_graph(n, 2.0 / n, seed=n)
        result = connected_components(g)
        assert np.array_equal(result.value, components_reference(g))

    def test_disjoint_pieces(self):
        g = Graph.from_edges(7, [(0, 1), (1, 2), (3, 4), (5, 6)])
        result = connected_components(g)
        assert result.extras["component_count"] == 3
        assert result.value[2] == 0
        assert result.value[4] == 3
        assert result.value[6] == 5

    def test_connected_graph_single_component(self):
        g = random_tree(20, seed=1)
        result = connected_components(g)
        assert result.extras["component_count"] == 1
        assert (result.value == 0).all()

    def test_isolated_nodes_are_own_components(self):
        g = Graph.from_edges(5, [(0, 1)])
        result = connected_components(g)
        assert result.extras["component_count"] == 4

    def test_directed_uses_weak_components(self):
        g = Graph.from_edges(4, [(0, 1), (2, 1)], directed=True)
        result = connected_components(g)
        assert np.array_equal(result.value, components_reference(g))
        assert result.extras["component_count"] == 2

    def test_cycle_one_component(self):
        result = connected_components(cycle_graph(12))
        assert result.extras["component_count"] == 1

    def test_semiring_engine(self):
        g = gnp_random_graph(20, 0.1, seed=4)
        result = connected_components(g, method="semiring")
        assert np.array_equal(result.value, components_reference(g))
