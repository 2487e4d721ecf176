"""Tests for Theorem 15 (undirected girth) and Corollary 16 (directed)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constants import INF
from repro.distances import (
    default_cycle_length_cutoff,
    edge_threshold,
    girth_directed,
    girth_undirected,
)
from repro.engine import make_clique
from repro.errors import CliqueModelError
from repro.faults import FaultPlan
from repro.graphs import (
    Graph,
    cycle_graph,
    cycle_with_trees,
    dense_small_girth_graph,
    girth_reference,
    gnp_random_graph,
    random_tree,
)


class TestUndirectedGirth:
    @settings(max_examples=8, deadline=None)
    @given(
        st.integers(min_value=0, max_value=10**6),
        st.integers(min_value=3, max_value=9),
    )
    def test_sparse_branch_exact(self, seed, g_target):
        graph = cycle_with_trees(24, g_target, seed=seed)
        result = girth_undirected(graph)
        assert result.value == g_target
        assert result.extras["branch"] == "sparse"

    @pytest.mark.parametrize("n", [25, 64, 121, 225])
    def test_sparse_branch_at_table1_sizes(self, n):
        """Table 1 "girth", Theorem 15's sparse branch: learn the graph in
        O(m/n) rounds."""
        result = girth_undirected(cycle_with_trees(n, 7, seed=n))
        assert result.value == 7
        assert result.extras["branch"] == "sparse"

    @pytest.mark.parametrize("n", [16, 25, 36])
    def test_dense_branch_at_table1_sizes(self, n):
        """Theorem 15's dense branch: colour-coding detection."""
        g = dense_small_girth_graph(n, seed=n)
        result = girth_undirected(
            g, trials_per_k=10, rng=np.random.default_rng(n)
        )
        assert result.value == girth_reference(g)
        assert result.extras["branch"].startswith("dense")

    def test_acyclic_graph(self):
        result = girth_undirected(random_tree(20, seed=1))
        assert result.value >= INF

    @settings(max_examples=5, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_dense_branch_matches_reference(self, seed):
        # p = 0.8 keeps the edge count above the Lemma 14 threshold for all
        # seeds, pinning the run to the colour-coding branch.
        graph = gnp_random_graph(16, 0.8, seed=seed)
        result = girth_undirected(
            graph, trials_per_k=20, rng=np.random.default_rng(seed)
        )
        assert result.value == girth_reference(graph)
        assert result.extras["branch"].startswith("dense")

    def test_forced_dense_branch_via_cutoff(self):
        # A tiny cutoff drops the edge threshold below m, forcing the
        # colour-coding branch even on a moderate graph.
        graph = gnp_random_graph(16, 0.5, seed=3)
        result = girth_undirected(
            graph, cutoff=4, trials_per_k=25, rng=np.random.default_rng(0)
        )
        assert result.value == girth_reference(graph)

    def test_directed_input_rejected(self):
        g = gnp_random_graph(8, 0.3, seed=0, directed=True)
        with pytest.raises(ValueError):
            girth_undirected(g)

    def test_cutoff_default_formula(self):
        assert default_cycle_length_cutoff(0.2876) == 9
        assert default_cycle_length_cutoff(1.0 / 3.0) == 8

    def test_edge_threshold_monotone_in_n(self):
        assert edge_threshold(100, 8) > edge_threshold(50, 8)


class TestDirectedGirth:
    @settings(max_examples=8, deadline=None)
    @given(st.integers(min_value=3, max_value=16))
    def test_directed_cycle_exact(self, k):
        result = girth_directed(cycle_graph(k, directed=True))
        assert result.value == k

    @settings(max_examples=8, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_random_digraphs_match_reference(self, seed):
        g = gnp_random_graph(14, 0.15, seed=seed, directed=True)
        result = girth_directed(g)
        assert result.value == girth_reference(g)

    def test_random_digraph_n36(self):
        g = gnp_random_graph(36, 0.12, seed=9, directed=True)
        assert girth_directed(g).value == girth_reference(g)

    def test_mutual_edge_girth_two(self):
        g = Graph.from_edges(5, [(0, 1), (1, 0), (2, 3)], directed=True)
        assert girth_directed(g).value == 2

    def test_acyclic_digraph(self):
        adj = np.triu(gnp_random_graph(12, 0.4, seed=2).adjacency)
        g = Graph(n=12, adjacency=adj, directed=True)
        result = girth_directed(g)
        assert result.value >= INF

    def test_undirected_input_rejected(self):
        with pytest.raises(ValueError):
            girth_directed(cycle_graph(5))

    @pytest.mark.parametrize("n", [15, 31, 63])
    def test_products_logarithmic(self, n):
        """Corollary 16 on the directed n-cycle: doubling plus binary
        search take O(log n) Boolean products."""
        result = girth_directed(cycle_graph(n, directed=True))
        assert result.value == n
        assert result.extras["boolean_products"] <= 3 * n.bit_length()


class TestCorruptedEdgeListIsAModelError:
    """Unprotected faults reach the edge list the sparse branch learns; the
    receiver refuses a record outside ``0 <= u < v < n`` by name instead of
    failing inside the local graph build."""

    @pytest.mark.parametrize("kind", ["flip", "drop"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_learn_graph_raises_clique_model_error(self, kind, seed):
        graph = gnp_random_graph(16, 0.35, seed=16)
        clique = make_clique(
            16, "bilinear", fault_plan=FaultPlan(t=1, seed=seed, kind=kind)
        )
        with pytest.raises(CliqueModelError, match="girth/learn-graph"):
            girth_undirected(graph, clique=clique)
