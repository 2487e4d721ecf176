"""Tests for bilinear algorithms: Strassen, Kronecker powers, classical."""

from __future__ import annotations

import math

import numpy as np
import pytest
from bilinear_reference import multiply, verify_bilinear
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra.bilinear import (
    STRASSEN,
    BilinearAlgorithm,
    classical,
    largest_strassen_level,
    strassen_power,
)


class TestStrassenBase:
    def test_shape(self):
        assert STRASSEN.d == 2
        assert STRASSEN.m == 7

    def test_sigma(self):
        assert STRASSEN.sigma == pytest.approx(math.log2(7))

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_correct_on_random_matrices(self, seed):
        rng = np.random.default_rng(seed)
        s = rng.integers(-100, 100, (6, 6), dtype=np.int64)
        t = rng.integers(-100, 100, (6, 6), dtype=np.int64)
        assert np.array_equal(multiply(STRASSEN, s, t), s @ t)


class TestKroneckerPowers:
    def test_level_zero_is_trivial(self):
        alg = strassen_power(0)
        assert alg.d == 1
        assert alg.m == 1

    def test_level_counts(self):
        for level in (1, 2, 3):
            alg = strassen_power(level)
            assert alg.d == 2**level
            assert alg.m == 7**level

    def test_power_cached(self):
        assert strassen_power(2) is strassen_power(2)

    @settings(max_examples=8, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_level2_correct(self, seed):
        rng = np.random.default_rng(seed)
        s = rng.integers(-50, 50, (8, 8), dtype=np.int64)
        t = rng.integers(-50, 50, (8, 8), dtype=np.int64)
        assert np.array_equal(multiply(strassen_power(2), s, t), s @ t)

    def test_level3_correct_once(self):
        verify_bilinear(strassen_power(3), trials=1, block=1)

    def test_compose_mixed(self):
        mixed = STRASSEN.compose(classical(3))
        assert mixed.d == 6
        assert mixed.m == 7 * 27
        verify_bilinear(mixed, trials=2, block=1)

    def test_negative_level_rejected(self):
        with pytest.raises(ValueError):
            strassen_power(-1)


class TestClassical:
    def test_counts(self):
        alg = classical(3)
        assert alg.d == 3
        assert alg.m == 27
        assert alg.sigma == pytest.approx(3.0)

    @settings(max_examples=10, deadline=None)
    @given(
        st.integers(min_value=0, max_value=10**6),
        st.integers(min_value=1, max_value=4),
    )
    def test_correct(self, seed, d):
        rng = np.random.default_rng(seed)
        size = d * 2
        s = rng.integers(-30, 30, (size, size), dtype=np.int64)
        t = rng.integers(-30, 30, (size, size), dtype=np.int64)
        assert np.array_equal(multiply(classical(d), s, t), s @ t)

    def test_rejects_bad_d(self):
        with pytest.raises(ValueError):
            classical(0)


class TestLargestLevel:
    def test_thresholds(self):
        assert largest_strassen_level(1) == 0
        assert largest_strassen_level(6) == 0
        assert largest_strassen_level(7) == 1
        assert largest_strassen_level(48) == 1
        assert largest_strassen_level(49) == 2
        assert largest_strassen_level(343) == 3

    @given(st.integers(min_value=1, max_value=10**6))
    def test_level_is_maximal(self, n):
        level = largest_strassen_level(n)
        assert 7**level <= n
        assert 7 ** (level + 1) > n


class TestTensorValidation:
    def test_bad_alpha_shape_rejected(self):
        one = np.ones((1, 1, 1), dtype=np.int64)
        with pytest.raises(ValueError):
            BilinearAlgorithm(
                name="bad", d=2, m=1, alpha=one, beta=one, lam=one
            )

    def test_multiply_pads_odd_sizes(self):
        rng = np.random.default_rng(3)
        s = rng.integers(-10, 10, (5, 5), dtype=np.int64)
        t = rng.integers(-10, 10, (5, 5), dtype=np.int64)
        assert np.array_equal(multiply(STRASSEN, s, t), s @ t)

    def test_verify_catches_corruption(self):
        broken = BilinearAlgorithm(
            name="broken",
            d=2,
            m=7,
            alpha=STRASSEN.alpha.copy(),
            beta=STRASSEN.beta.copy(),
            lam=-STRASSEN.lam,
        )
        with pytest.raises(AssertionError):
            verify_bilinear(broken, trials=1)

