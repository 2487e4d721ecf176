"""Tests for the §2.2 fast bilinear clique matrix multiplication."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from kernel_reference import poly_matmul
from schedule_reference import certify

from repro.algebra.bilinear import classical, strassen_power
from repro.clique import CongestedClique
from repro.errors import CliqueSizeError
from repro.matmul.bilinear_clique import bilinear_matmul, default_algorithm
from repro.matmul.exponent import fit_exponent, predicted_bilinear_rounds


def _rounds_on_signed_inputs(n, algorithm):
    rng = np.random.default_rng(n)
    s = rng.integers(-9, 10, (n, n), dtype=np.int64)
    t = rng.integers(-9, 10, (n, n), dtype=np.int64)
    clique = CongestedClique(n)
    assert np.array_equal(bilinear_matmul(clique, s, t, algorithm), s @ t)
    return clique.rounds


class TestCorrectness:
    @settings(max_examples=8, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_strassen_on_49(self, seed):
        rng = np.random.default_rng(seed)
        n = 49
        s = rng.integers(-9, 10, (n, n), dtype=np.int64)
        t = rng.integers(-9, 10, (n, n), dtype=np.int64)
        clique = CongestedClique(n)
        assert np.array_equal(bilinear_matmul(clique, s, t), s @ t)

    @pytest.mark.parametrize("n", [16, 25, 36, 64, 100])
    def test_various_square_sizes(self, n, rng):
        s = rng.integers(-5, 6, (n, n), dtype=np.int64)
        t = rng.integers(-5, 6, (n, n), dtype=np.int64)
        clique = CongestedClique(n)
        assert np.array_equal(bilinear_matmul(clique, s, t), s @ t)

    def test_classical_algorithm_ablation(self, rng):
        n = 64
        s = rng.integers(-5, 6, (n, n), dtype=np.int64)
        t = rng.integers(-5, 6, (n, n), dtype=np.int64)
        clique = CongestedClique(n)
        assert np.array_equal(bilinear_matmul(clique, s, t, classical(4)), s @ t)

    def test_trivial_algorithm_level0(self, rng):
        n = 4
        s = rng.integers(-3, 4, (n, n), dtype=np.int64)
        t = rng.integers(-3, 4, (n, n), dtype=np.int64)
        clique = CongestedClique(n)
        assert np.array_equal(
            bilinear_matmul(clique, s, t, strassen_power(0)), s @ t
        )

    def test_wide_entries(self, rng):
        n = 16
        s = rng.integers(-(2**30), 2**30, (n, n), dtype=np.int64)
        t = rng.integers(-100, 100, (n, n), dtype=np.int64)
        clique = CongestedClique(n)
        assert np.array_equal(bilinear_matmul(clique, s, t), s @ t)

    def test_refuses_semirings_without_subtraction(self):
        """Strassen subtracts, so a non-ring would yield wrong products;
        the engine refuses it before any exchange."""
        from repro.algebra.semirings import BOOLEAN, MIN_PLUS

        clique = CongestedClique(16)
        a = np.eye(16, dtype=np.int64)
        for semiring in (MIN_PLUS, BOOLEAN):
            with pytest.raises(ValueError, match="needs a ring"):
                bilinear_matmul(clique, a, a, ring=semiring)
        assert clique.rounds == 0


class TestPolynomialRing:
    def test_poly_product(self, rng):
        from repro.algebra.polynomial import (
            POLYNOMIAL,
            decode_minplus,
            encode_minplus,
        )

        n = 16
        s = rng.integers(0, 4, (n, n), dtype=np.int64)
        t = rng.integers(0, 4, (n, n), dtype=np.int64)
        es = encode_minplus(s, 3, 4)
        et = encode_minplus(t, 3, 4)
        clique = CongestedClique(n)
        got = bilinear_matmul(clique, es, et, ring=POLYNOMIAL)
        assert np.array_equal(got, poly_matmul(es, et))
        assert np.array_equal(decode_minplus(got), decode_minplus(poly_matmul(es, et)))


class TestCosts:
    @pytest.mark.parametrize("n", [16, 49, 100, 144])
    def test_rounds_match_predictor_for_binary_inputs(self, n, rng):
        s = rng.integers(0, 2, (n, n), dtype=np.int64)
        t = rng.integers(0, 2, (n, n), dtype=np.int64)
        clique = CongestedClique(n)
        alg = default_algorithm(n)
        bilinear_matmul(clique, s, t, alg)
        assert clique.rounds == predicted_bilinear_rounds(n, alg)

    @pytest.mark.parametrize("n", [49, 100, 144, 196, 256])
    def test_table1_rounds_match_predictor(self, n):
        """Table 1 "matrix multiplication (ring)": O(n^{1-2/sigma}) rounds
        with the deepest Strassen power that fits, exactly the closed form,
        on signed inputs."""
        algorithm = default_algorithm(n)
        assert _rounds_on_signed_inputs(n, algorithm) == (
            predicted_bilinear_rounds(n, algorithm)
        )

    def test_rounds_exponent(self):
        """Level quantisation makes small-n fits noisy; sanity bound."""
        sizes = [49, 100, 144, 196, 256]
        rounds = [_rounds_on_signed_inputs(n, default_algorithm(n)) for n in sizes]
        assert fit_exponent(sizes, rounds) < 1.0

    @pytest.mark.parametrize("level", [0, 1, 2])
    def test_strassen_level_ablation(self, level):
        """Recursion depth at fixed n = 196 (Lemma 10's trade-off of
        communication against products), each bill the closed form."""
        algorithm = strassen_power(level)
        assert _rounds_on_signed_inputs(196, algorithm) == (
            predicted_bilinear_rounds(196, algorithm)
        )

    @pytest.mark.parametrize("d", [2, 4])
    def test_classical_rounds_match_predictor(self, d):
        """The school-book <d, d, d; d^3> algorithm (sigma = 3) through the
        same engine at n = 196."""
        assert _rounds_on_signed_inputs(196, classical(d)) == (
            predicted_bilinear_rounds(196, d=d, m=d**3)
        )

    def test_fig2_load_balance(self):
        """Figure 2's two-level partition balances step 1: the busiest node
        sends at least the mean and at most 128 words more."""
        n = 49
        rng = np.random.default_rng(1)
        s = rng.integers(0, 2, (n, n), dtype=np.int64)
        t = rng.integers(0, 2, (n, n), dtype=np.int64)
        clique = CongestedClique(n)
        bilinear_matmul(clique, s, t, default_algorithm(n))
        step1 = next(p for p in clique.meter.phases if "step1" in p.phase)
        assert step1.max_send_words * n >= step1.words
        assert step1.max_send_words <= step1.words // n + 2 * 64

    def test_strassen_exponent_beats_classical(self):
        """The Lemma 10 trade-off: Strassen's exponent wins asymptotically.

        Level quantisation means classical can win at small n (its d jumps
        in steps of 1 rather than factors of 2), so the comparison uses the
        exact round predictors over a geometric sweep and checks the fitted
        growth exponents -- the claim Table 1 actually makes.
        """
        from repro.matmul.exponent import fit_exponent

        sizes = [49**2, 49**3, 49**4]
        strassen_rounds = []
        classical_rounds = []
        for n in sizes:
            level = 0
            while 7 ** (level + 1) <= n:
                level += 1
            strassen_rounds.append(
                predicted_bilinear_rounds(n, d=2**level, m=7**level)
            )
            d = int(round(n ** (1 / 3)))
            while d**3 > n:
                d -= 1
            classical_rounds.append(predicted_bilinear_rounds(n, d=d, m=d**3))
        strassen_exp = fit_exponent(sizes, strassen_rounds)
        classical_exp = fit_exponent(sizes, classical_rounds)
        assert strassen_exp < classical_exp
        assert strassen_rounds[-1] < classical_rounds[-1]

    def test_bills_are_certified(self, rng):
        n = 16
        s = rng.integers(0, 3, (n, n), dtype=np.int64)
        t = rng.integers(0, 3, (n, n), dtype=np.int64)
        plain = CongestedClique(n)
        certified = CongestedClique(n)
        certifier = certify(certified)
        p_plain = bilinear_matmul(plain, s, t)
        p_certified = bilinear_matmul(certified, s, t)
        assert np.array_equal(p_plain, p_certified)
        assert certified.rounds == plain.rounds
        assert certifier.total == len(certified.meter.phases)
        assert certifier.certified["route"] == 4


class TestValidation:
    def test_non_square_clique_rejected(self, rng):
        clique = CongestedClique(10)
        mat = rng.integers(0, 2, (10, 10), dtype=np.int64)
        with pytest.raises(CliqueSizeError):
            bilinear_matmul(clique, mat, mat)

    def test_oversized_algorithm_rejected(self, rng):
        clique = CongestedClique(16)
        mat = rng.integers(0, 2, (16, 16), dtype=np.int64)
        with pytest.raises(CliqueSizeError):
            bilinear_matmul(clique, mat, mat, strassen_power(2))  # m = 49 > 16

    def test_wrong_shape_rejected(self, rng):
        clique = CongestedClique(16)
        with pytest.raises(ValueError):
            bilinear_matmul(
                clique,
                rng.integers(0, 2, (8, 8), dtype=np.int64),
                rng.integers(0, 2, (8, 8), dtype=np.int64),
            )
