"""Tests for the round predictors and exponent fitting."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.algebra.bilinear import classical, strassen_power
from repro.clique import CongestedClique
from repro.constants import RHO_IMPLEMENTED
from repro.matmul.bilinear_clique import bilinear_matmul
from repro.matmul.exponent import (
    fit_exponent,
    predicted_bilinear_rounds,
    predicted_semiring3d_rounds,
)

#: Every square clique from 4 to 256 with each Strassen power (levels 0-2)
#: and classical ``<d, d, d; d^3>`` (d = 2-6) that fits (``m <= n``): 80
#: runs.
SWEEP = [
    (q * q, algorithm)
    for q in range(2, 17)
    for algorithm in [strassen_power(level) for level in range(3)]
    + [classical(d) for d in range(2, 7)]
    if algorithm.m <= q * q
]


class TestFitExponent:
    def test_perfect_power_law(self):
        ns = [10, 100, 1000]
        values = [n**0.5 for n in ns]
        assert fit_exponent(ns, values) == pytest.approx(0.5, abs=1e-9)

    def test_constant_series_is_flat(self):
        assert fit_exponent([10, 100, 1000], [7, 7, 7]) == pytest.approx(0.0)

    def test_single_point_is_nan(self):
        assert math.isnan(fit_exponent([10], [5]))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            fit_exponent([1, 2], [1])


class TestSemiring3dPredictor:
    def test_known_values(self):
        # n = 27, q = 3: step1 load 2*81*... = 2 q^4 = 162 -> 2*ceil(162/27)=12;
        # step3 load 81 -> 2*ceil(81/27) = 6; total 18.
        assert predicted_semiring3d_rounds(27) == 18

    def test_asymptotic_exponent_is_one_third(self):
        sizes = [10**3, 20**3, 40**3, 80**3]
        rounds = [predicted_semiring3d_rounds(n) for n in sizes]
        assert fit_exponent(sizes, rounds) == pytest.approx(1 / 3, abs=0.02)

    def test_witness_words_increase_cost(self):
        base = predicted_semiring3d_rounds(64)
        with_wit = predicted_semiring3d_rounds(64, witness_words=1)
        assert with_wit > base

    def test_entry_width_scales_cost(self):
        assert predicted_semiring3d_rounds(27, entry_words_in=2) > (
            predicted_semiring3d_rounds(27)
        )


class TestBilinearPredictor:
    def test_requires_shape(self):
        with pytest.raises(ValueError):
            predicted_bilinear_rounds(49)
        with pytest.raises(ValueError, match="m <= n"):
            predicted_bilinear_rounds(36, d=4, m=49)

    @pytest.mark.parametrize(
        "n,algorithm", SWEEP, ids=[f"{n}-{a.name}" for n, a in SWEEP]
    )
    def test_equals_the_bill(self, n, algorithm):
        """The closed form is the bill on 0/1 inputs: every d = 1 product
        (whose nodes keep their own pieces) and every layout with padded
        cell rows (d = 4 at n = 81) included."""
        rng = np.random.default_rng(n)
        s = rng.integers(0, 2, (n, n), dtype=np.int64)
        t = rng.integers(0, 2, (n, n), dtype=np.int64)
        clique = CongestedClique(n)
        assert np.array_equal(bilinear_matmul(clique, s, t, algorithm), s @ t)
        assert clique.rounds == predicted_bilinear_rounds(n, algorithm)

    def test_accepts_algorithm_or_shape(self):
        alg = strassen_power(2)
        assert predicted_bilinear_rounds(49, alg) == predicted_bilinear_rounds(
            49, d=4, m=49
        )

    def test_asymptotic_exponent_matches_strassen(self):
        # Evaluate at n = 7^(2k) where m = n exactly; the cell-padding
        # ratio ceil(q/d)/(q/d) -> 1 makes convergence to the Strassen
        # exponent slow from above, so fit the tail of a long sweep.
        sizes = [7 ** (2 * k) for k in range(4, 8)]
        rounds = []
        for n in sizes:
            level = round(math.log(n, 7))
            rounds.append(predicted_bilinear_rounds(n, d=2**level, m=7**level))
        fitted = fit_exponent(sizes, rounds)
        assert fitted == pytest.approx(RHO_IMPLEMENTED, abs=0.02)
        assert fitted < 1 / 3  # strictly beats the semiring engine

    def test_bilinear_grows_slower_than_semiring(self):
        # The Theorem 1 comparison at a size where both shapes exist.
        n = 7**6  # = 117649, also a perfect cube? No -- use predictor pair
        bil = predicted_bilinear_rounds(n, d=2**6, m=7**6)
        cube_n = 49**3  # closest cube scale
        semi = predicted_semiring3d_rounds(cube_n)
        # Compare growth, not absolute values: recompute one octave up.
        bil2 = predicted_bilinear_rounds(7**8, d=2**8, m=7**8)
        semi2 = predicted_semiring3d_rounds(98**3)
        bil_growth = math.log(bil2 / bil) / math.log(7**8 / n)
        semi_growth = math.log(semi2 / semi) / math.log((98 / 49) ** 3)
        assert bil_growth < semi_growth
