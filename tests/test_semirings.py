"""Tests for the semiring abstractions: laws, products, witnesses."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from kernel_reference import add_with_witness

from repro.algebra.semirings import (
    ALL_SEMIRINGS,
    BOOLEAN,
    MAX_MIN,
    MIN_PLUS,
    PLUS_TIMES,
)
from repro.constants import INF


def _random_matrix(rng, semiring, size):
    if semiring is BOOLEAN:
        return (rng.random((size, size)) < 0.5).astype(np.int64)
    if semiring is MIN_PLUS:
        mat = rng.integers(0, 30, (size, size), dtype=np.int64)
        mat[rng.random((size, size)) < 0.2] = INF
        return mat
    if semiring is MAX_MIN:
        return rng.integers(-20, 20, (size, size), dtype=np.int64)
    return rng.integers(-9, 10, (size, size), dtype=np.int64)


class TestSemiringLaws:
    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_matmul_associative(self, seed):
        rng = np.random.default_rng(seed)
        for semiring in ALL_SEMIRINGS:
            a, b, c = (_random_matrix(rng, semiring, 5) for _ in range(3))
            left = semiring.matmul(semiring.matmul(a, b), c)
            right = semiring.matmul(a, semiring.matmul(b, c))
            if semiring is MIN_PLUS:
                # Saturated arithmetic: compare below the sentinel.
                both = (left < INF) & (right < INF)
                assert np.array_equal(left[both], right[both])
                assert np.array_equal(left >= INF, right >= INF)
            else:
                assert np.array_equal(left, right)

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_add_commutative(self, seed):
        rng = np.random.default_rng(seed)
        for semiring in ALL_SEMIRINGS:
            a = _random_matrix(rng, semiring, 6)
            b = _random_matrix(rng, semiring, 6)
            assert np.array_equal(semiring.add(a, b), semiring.add(b, a))

    def test_zero_is_additive_identity(self):
        rng = np.random.default_rng(0)
        for semiring in ALL_SEMIRINGS:
            a = _random_matrix(rng, semiring, 4)
            z = semiring.zeros((4, 4))
            assert np.array_equal(semiring.add(a, z), a)


class TestMinPlus:
    def test_matches_naive(self, rng):
        x = _random_matrix(rng, MIN_PLUS, 7)
        y = _random_matrix(rng, MIN_PLUS, 7)
        product = MIN_PLUS.matmul(x, y)
        for i in range(7):
            for j in range(7):
                want = INF
                for k in range(7):
                    if x[i, k] < INF and y[k, j] < INF:
                        want = min(want, int(x[i, k]) + int(y[k, j]))
                assert product[i, j] == want

    def test_witnesses_attain_minimum(self, rng):
        x = _random_matrix(rng, MIN_PLUS, 8)
        y = _random_matrix(rng, MIN_PLUS, 8)
        product, witness = MIN_PLUS.matmul_with_witness(x, y)
        for i in range(8):
            for j in range(8):
                if product[i, j] < INF:
                    k = witness[i, j]
                    assert x[i, k] + y[k, j] == product[i, j]

    def test_inf_saturation(self):
        x = np.full((2, 2), INF, dtype=np.int64)
        y = np.full((2, 2), -5, dtype=np.int64)
        assert np.all(MIN_PLUS.matmul(x, y) >= INF)

    def test_add_with_witness_selects_smaller(self):
        a = np.array([[3, 1]], dtype=np.int64)
        b = np.array([[2, 5]], dtype=np.int64)
        wa = np.array([[10, 11]], dtype=np.int64)
        wb = np.array([[20, 21]], dtype=np.int64)
        merged, wit = add_with_witness(MIN_PLUS, a, wa, b, wb)
        assert merged.tolist() == [[2, 1]]
        assert wit.tolist() == [[20, 11]]


class TestBoolean:
    def test_matches_thresholded_integer_product(self, rng):
        x = _random_matrix(rng, BOOLEAN, 9)
        y = _random_matrix(rng, BOOLEAN, 9)
        assert np.array_equal(BOOLEAN.matmul(x, y), ((x @ y) > 0).astype(np.int64))

    def test_add_is_or(self):
        a = np.array([[0, 1], [1, 0]], dtype=np.int64)
        b = np.array([[1, 1], [0, 0]], dtype=np.int64)
        assert BOOLEAN.add(a, b).tolist() == [[1, 1], [1, 0]]


class TestMaxMin:
    def test_matches_naive(self, rng):
        x = _random_matrix(rng, MAX_MIN, 6)
        y = _random_matrix(rng, MAX_MIN, 6)
        product = MAX_MIN.matmul(x, y)
        for i in range(6):
            for j in range(6):
                want = max(min(int(x[i, k]), int(y[k, j])) for k in range(6))
                assert product[i, j] == want

    def test_witnesses(self, rng):
        x = _random_matrix(rng, MAX_MIN, 5)
        y = _random_matrix(rng, MAX_MIN, 5)
        product, witness = MAX_MIN.matmul_with_witness(x, y)
        for i in range(5):
            for j in range(5):
                k = witness[i, j]
                assert min(x[i, k], y[k, j]) == product[i, j]


class TestWitnessSupport:
    def test_plus_times_has_no_witnesses(self):
        with pytest.raises(NotImplementedError):
            PLUS_TIMES.matmul_with_witness(np.eye(2, dtype=np.int64), np.eye(2, dtype=np.int64))

    def test_flags(self):
        assert PLUS_TIMES.is_ring
        assert not MIN_PLUS.is_ring
        assert MIN_PLUS.has_witnesses
        assert MAX_MIN.has_witnesses
        assert not BOOLEAN.has_witnesses
