"""Tests for diameter/radius properties and k-path detection."""

from __future__ import annotations

import numpy as np
import pytest
from graph_reference import diameter_reference
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distances import (
    diameter_approx,
    diameter_exact,
    diameter_unweighted,
)
from repro.graphs import (
    Graph,
    cycle_graph,
    gnp_random_graph,
    planted_cycle_graph,
    random_tree,
    random_weighted_digraph,
)
from repro.subgraphs import detect_k_path


class TestDiameter:
    @settings(max_examples=5, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_exact_matches_reference(self, seed):
        g = random_weighted_digraph(14, 0.4, 9, seed=seed)
        result = diameter_exact(g)
        diameter, radius = diameter_reference(g)
        assert result.value == diameter
        assert result.extras["radius"] == radius

    @settings(max_examples=5, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_unweighted_matches_reference(self, seed):
        g = gnp_random_graph(18, 0.25, seed=seed)
        result = diameter_unweighted(g)
        diameter, radius = diameter_reference(g)
        assert result.value == diameter
        assert result.extras["radius"] == radius

    def test_cycle_eccentricities(self):
        g = cycle_graph(8)
        result = diameter_unweighted(g)
        assert result.value == 4
        assert result.extras["radius"] == 4
        assert (result.extras["eccentricities"] == 4).all()

    def test_path_graph(self):
        n = 9
        g = Graph.from_edges(n, [(v, v + 1) for v in range(n - 1)])
        result = diameter_unweighted(g)
        assert result.value == n - 1
        assert result.extras["radius"] == (n - 1 + 1) // 2

    def test_approx_diameter_overestimates_within_bound(self):
        g = random_weighted_digraph(14, 0.4, 20, seed=4)
        result = diameter_approx(g, delta=0.3)
        diameter, _ = diameter_reference(g)
        assert diameter <= result.value <= result.extras["ratio_bound"] * diameter

    def test_costs_one_round_more_than_apsp(self):
        from repro.distances import apsp_unweighted

        g = gnp_random_graph(16, 0.3, seed=1)
        apsp = apsp_unweighted(g)
        diam = diameter_unweighted(g)
        assert diam.rounds == apsp.rounds + 1


class TestKPathDetection:
    @pytest.mark.slow
    @settings(max_examples=5, deadline=None)
    @given(
        st.integers(min_value=0, max_value=10**6),
        st.integers(min_value=3, max_value=5),
    )
    def test_completeness_on_long_path_graphs(self, seed, k):
        # A planted cycle of length >= k contains a k-node path.
        g = planted_cycle_graph(16, max(k, 3) + 1, seed=seed, extra_edge_prob=0.3)
        result = detect_k_path(g, k, trials=60, rng=np.random.default_rng(seed))
        assert result.value

    def test_soundness_short_components(self):
        # Three disjoint edges: longest simple path has 2 nodes.
        g = Graph.from_edges(6, [(0, 1), (2, 3), (4, 5)])
        result = detect_k_path(g, 3, trials=15)
        assert not result.value

    def test_star_has_three_paths_not_four(self):
        g = Graph.from_edges(6, [(0, v) for v in range(1, 6)])
        assert detect_k_path(g, 3, trials=40, rng=np.random.default_rng(1)).value
        assert not detect_k_path(g, 4, trials=15).value

    def test_tree_paths(self):
        g = random_tree(14, seed=3)
        # A 14-node tree always has a 3-node path.
        assert detect_k_path(g, 3, trials=40, rng=np.random.default_rng(2)).value

    def test_k_validation(self):
        with pytest.raises(ValueError):
            detect_k_path(cycle_graph(5), 1)

    @pytest.mark.parametrize(
        "n,cycle,seed", [(16, 5, 1), (16, 6, 16), (49, 6, 49)]
    )
    def test_rounds_charged(self, n, cycle, seed):
        """Colour coding errs one way: two trials may miss the path, but a
        miss spends the whole budget, and every trial is billed the same,
        so the bill is the trials used times one colouring's."""
        g = planted_cycle_graph(n, cycle, seed=seed, extra_edge_prob=0.4)
        result = detect_k_path(g, 4, trials=2, rng=np.random.default_rng(0))
        used = result.extras["trials_used"]
        assert result.value or used == 2
        one = detect_k_path(g, 4, trials=1, rng=np.random.default_rng(1))
        assert result.rounds == used * one.rounds > 0

    @pytest.mark.parametrize(
        "n,cycle,seed,used,rounds,words",
        [(16, 6, 16, 2, 724, 48480), (49, 6, 49, 1, 410, 440160)],
    )
    def test_verdict_and_bill_pinned(self, n, cycle, seed, used, rounds, words):
        """Pinned verdict, trials and bill of the path detector, which
        builds C([k]) with the cycle detector's recursion."""
        g = planted_cycle_graph(n, cycle, seed=seed, extra_edge_prob=0.4)
        result = detect_k_path(g, 4, trials=2, rng=np.random.default_rng(0))
        assert result.value
        assert result.extras["trials_used"] == used
        assert (result.rounds, result.meter.words) == (rounds, words)
