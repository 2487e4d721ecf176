"""Tests for Lemma 11 / Theorem 3 colour-coding k-cycle detection."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from graph_reference import has_k_cycle_reference
from hypothesis import strategies as st

from repro.clique.model import CongestedClique
from repro.graphs import (
    cycle_graph,
    gnp_random_graph,
    planted_cycle_graph,
    random_tree,
)
from repro.matmul.exponent import fit_exponent
from repro.runtime import make_clique, pad_matrix
from repro.subgraphs import default_trials, detect_colourful_cycle, detect_k_cycle


class TestColourfulDetection:
    def test_planted_cycle_with_distinct_colours(self):
        # Colour the planted cycle colourfully by construction: detection
        # must fire (Lemma 11 is deterministic given the colouring).
        k = 4
        g = cycle_graph(k)
        clique = make_clique(g.n, "bilinear")
        a = pad_matrix(g.adjacency, clique.n)
        colours = np.zeros(clique.n, dtype=np.int64)
        colours[:k] = np.arange(k)
        assert detect_colourful_cycle(clique, a, colours, k)

    def test_monochromatic_colouring_misses(self):
        k = 4
        g = cycle_graph(k)
        clique = make_clique(g.n, "bilinear")
        a = pad_matrix(g.adjacency, clique.n)
        colours = np.zeros(clique.n, dtype=np.int64)  # all colour 0
        assert not detect_colourful_cycle(clique, a, colours, k)

    def test_soundness_no_cycle_never_detected(self):
        # Trees have no cycles: no colouring can make detection fire.
        g = random_tree(16, seed=3)
        clique = make_clique(g.n, "bilinear")
        a = pad_matrix(g.adjacency, clique.n)
        rng = np.random.default_rng(0)
        for k in (3, 4, 5):
            for _ in range(5):
                colours = rng.integers(0, k, size=clique.n)
                assert not detect_colourful_cycle(clique, a, colours, k)

    def test_rounds_charged_per_product(self):
        g = cycle_graph(5)
        clique = make_clique(g.n, "bilinear")
        a = pad_matrix(g.adjacency, clique.n)
        colours = np.zeros(clique.n, dtype=np.int64)
        colours[:5] = np.arange(5)
        before = clique.rounds
        detect_colourful_cycle(clique, a, colours, 5)
        assert clique.rounds > before


class TestDetectKCycle:
    @settings(max_examples=5, deadline=None)
    @given(
        st.integers(min_value=0, max_value=10**6),
        st.integers(min_value=3, max_value=4),
    )
    def test_completeness_on_planted_cycles(self, seed, k):
        # Per-trial success is k!/k^k (>= 0.094 for k <= 4); 100 trials
        # push the miss probability below 1e-4 so the property is stable.
        g = planted_cycle_graph(18, k, seed=seed, extra_edge_prob=0.4)
        result = detect_k_cycle(
            g, k, trials=100, rng=np.random.default_rng(seed)
        )
        assert result.value, f"missed planted {k}-cycle (seed {seed})"

    def test_seed_parameter_reproduces_and_matches_rng(self):
        """``seed=`` is determinism-by-default: equal to an explicit
        generator with the same seed, and stable across calls."""
        g = planted_cycle_graph(16, 4, seed=3, extra_edge_prob=0.3)
        by_seed = detect_k_cycle(g, 4, trials=20, seed=42)
        again = detect_k_cycle(g, 4, trials=20, seed=42)
        by_rng = detect_k_cycle(g, 4, trials=20, rng=np.random.default_rng(42))
        assert by_seed.value == again.value == by_rng.value
        assert (
            by_seed.extras["trials_used"]
            == again.extras["trials_used"]
            == by_rng.extras["trials_used"]
        )

    def test_shared_stream_gives_fresh_trial_batches(self):
        """``seed=None`` routes to the advancing module-level stream, so
        back-to-back batches draw different colourings (the old in-call
        ``default_rng(0)`` replayed the first batch forever)."""
        from repro.runtime import resolve_rng

        state_before = resolve_rng(seed=None).bit_generator.state
        g = gnp_random_graph(12, 0.1, seed=5)  # likely no 4-cycle; cheap
        detect_k_cycle(g, 4, trials=3, seed=None)
        state_after = resolve_rng(seed=None).bit_generator.state
        assert state_before != state_after

    @pytest.mark.slow
    def test_completeness_k5_deterministic(self):
        # k = 5 has per-trial success ~0.038, so the property version would
        # be statistically flaky; pin one seeded instance instead.
        g = planted_cycle_graph(20, 5, seed=2, extra_edge_prob=0.5)
        result = detect_k_cycle(g, 5, trials=60, rng=np.random.default_rng(1))
        assert result.value

    @settings(max_examples=5, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_soundness_on_random_graphs(self, seed):
        g = gnp_random_graph(14, 0.12, seed=seed)
        for k in (3, 4):
            result = detect_k_cycle(
                g, k, trials=25, rng=np.random.default_rng(seed)
            )
            if result.value:
                assert has_k_cycle_reference(g, k)

    @pytest.mark.slow
    def test_even_cycle_detection(self):
        g = planted_cycle_graph(20, 6, seed=7, extra_edge_prob=0.3)
        result = detect_k_cycle(g, 6, trials=120, rng=np.random.default_rng(2))
        assert result.value

    def test_trees_never_detect(self):
        g = random_tree(20, seed=5)
        result = detect_k_cycle(g, 4, trials=10)
        assert not result.value
        assert result.extras["trials_used"] == 10

    def test_early_exit_on_success(self):
        g = cycle_graph(3)
        # With k=3 on a triangle, a random colouring succeeds quickly.
        result = detect_k_cycle(g, 3, trials=500, rng=np.random.default_rng(0))
        assert result.value
        assert result.extras["trials_used"] < 500

    def test_k_validation(self):
        with pytest.raises(ValueError):
            detect_k_cycle(cycle_graph(5), 2)

    def test_default_trials_formula(self):
        assert default_trials(3, 100, 0.01) >= 20
        assert default_trials(5, 100, 0.01) > default_trials(4, 100, 0.01)


@pytest.mark.slow
class TestTable1Rounds:
    """Table 1 "k-cycle detection": 2^{O(k)} n^rho log n via colour coding.

    A fixed small trial budget isolates the growth in n; the 2^{O(k)}
    constants are what they are.
    """

    @pytest.mark.parametrize("n", [16, 49, 100])
    @pytest.mark.parametrize("k", [4, 5])
    def test_bill_is_trials_times_one_colouring(self, n, k):
        """Colour coding errs one way: two trials miss the planted cycle in
        5 of these 6 cases, but a miss spends the whole budget, and every
        trial is billed the same."""
        g = planted_cycle_graph(n, k, seed=n + k, extra_edge_prob=0.5)
        result = detect_k_cycle(g, k, trials=2, rng=np.random.default_rng(0))
        used = result.extras["trials_used"]
        assert result.value or used == 2
        one = detect_k_cycle(g, k, trials=1, rng=np.random.default_rng(1))
        assert result.rounds == used * one.rounds

    def test_growth_in_n(self):
        """Sub-linear growth: the point of using the fast engine per
        product."""
        sizes = [16, 49, 100]
        rounds = [
            detect_k_cycle(
                planted_cycle_graph(n, 4, seed=n, extra_edge_prob=0.5),
                4,
                trials=1,
                rng=np.random.default_rng(1),
            ).rounds
            for n in sizes
        ]
        assert fit_exponent(sizes, rounds) < 1.0

    def test_growth_in_k(self):
        """The exponential-in-k blow-up (product count ~ 3^k) is visible."""
        rounds = [
            detect_k_cycle(
                planted_cycle_graph(49, k, seed=k, extra_edge_prob=0.5),
                k,
                trials=1,
                rng=np.random.default_rng(2),
            ).rounds
            for k in (3, 4, 5, 6)
        ]
        assert rounds[-1] > rounds[0]


class TestDirectedDetection:
    def test_directed_cycle_found(self):
        g = cycle_graph(4, directed=True)
        result = detect_k_cycle(g, 4, trials=80, rng=np.random.default_rng(1))
        assert result.value

    def test_directed_path_not_found(self):
        import repro.graphs.graphs as gg
        import numpy as np_

        adj = np_.zeros((8, 8), dtype=np_.int64)
        for v in range(7):
            adj[v, v + 1] = 1
        g = gg.Graph(n=8, adjacency=adj, directed=True)
        result = detect_k_cycle(g, 4, trials=10)
        assert not result.value
