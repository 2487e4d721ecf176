"""Tests for the Dolev-Lenzen-Peled prior-work baselines."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import dolev_four_cycle_detect, dolev_triangle_count
from repro.graphs import (
    bipartite_random_graph,
    cycle_graph,
    four_cycle_count_reference,
    gnp_random_graph,
    random_tree,
    triangle_count_reference,
    windmill_graph,
)


class TestDolevTriangles:
    @settings(max_examples=10, deadline=None)
    @given(
        st.integers(min_value=0, max_value=10**6),
        st.integers(min_value=6, max_value=30),
    )
    def test_counts_match_oracle(self, seed, n):
        g = gnp_random_graph(n, 0.35, seed=seed)
        assert dolev_triangle_count(g).value == triangle_count_reference(g)

    @pytest.mark.parametrize("n", [16, 49, 100, 196])
    def test_table1_sizes(self, n):
        g = gnp_random_graph(n, 0.3, seed=n)
        assert dolev_triangle_count(g).value == triangle_count_reference(g)

    def test_triangle_free(self):
        assert dolev_triangle_count(random_tree(20, 1)).value == 0

    def test_windmill(self):
        assert dolev_triangle_count(windmill_graph(21)).value == 10

    def test_directed_rejected(self):
        g = gnp_random_graph(9, 0.3, seed=0, directed=True)
        with pytest.raises(ValueError):
            dolev_triangle_count(g)

    def test_rounds_grow_like_cube_root(self):
        rounds = []
        for n in (27, 64, 125):
            g = gnp_random_graph(n, 0.3, seed=n)
            rounds.append(dolev_triangle_count(g).rounds)
        # Growth clearly sublinear but positive.
        assert rounds[-1] > rounds[0]
        assert rounds[-1] / rounds[0] < (125 / 27)


class TestDolevFourCycle:
    @settings(max_examples=10, deadline=None)
    @given(
        st.integers(min_value=0, max_value=10**6),
        st.floats(min_value=0.03, max_value=0.4),
    )
    def test_detection_matches_oracle(self, seed, p):
        g = gnp_random_graph(18, p, seed=seed)
        want = four_cycle_count_reference(g) > 0
        assert dolev_four_cycle_detect(g).value == want

    def test_negative_families(self):
        for g in (random_tree(30, 2), windmill_graph(25), cycle_graph(9)):
            assert not dolev_four_cycle_detect(g).value

    def test_positive(self):
        assert dolev_four_cycle_detect(cycle_graph(4)).value

    @pytest.mark.parametrize("n", [16, 36, 64, 100])
    def test_table1_sizes(self, n):
        """Constant average degree keeps C4 presence varied across sizes."""
        g = bipartite_random_graph(n, 4.0 / n, seed=n)
        want = four_cycle_count_reference(g) > 0
        assert dolev_four_cycle_detect(g).value == want

    def test_theorem4_beats_dolev_in_rounds(self):
        from repro.subgraphs import detect_four_cycles

        g = gnp_random_graph(100, 0.05, seed=5)
        ours = detect_four_cycles(g)
        prior = dolev_four_cycle_detect(g)
        assert ours.value == prior.value
        assert ours.rounds < prior.rounds
