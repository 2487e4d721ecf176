"""Tests for the capped polynomial ring (Lemma 18 substrate)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra.polynomial import POLYNOMIAL, decode_minplus, encode_minplus
from repro.algebra.semirings import MIN_PLUS
from repro.constants import INF


class TestEncode:
    def test_monomial_placement(self):
        mat = np.array([[0, 3], [INF, 2]], dtype=np.int64)
        enc = encode_minplus(mat, 3, 4)
        assert enc[0, 0].tolist() == [1, 0, 0, 0]
        assert enc[0, 1].tolist() == [0, 0, 0, 1]
        assert enc[1, 0].tolist() == [0, 0, 0, 0]  # inf -> zero polynomial

    def test_entries_above_bound_become_zero(self):
        mat = np.array([[5]], dtype=np.int64)
        enc = encode_minplus(mat, 3, 4)
        assert not enc.any()

    def test_degree_too_small_rejected(self):
        with pytest.raises(ValueError):
            encode_minplus(np.zeros((2, 2), dtype=np.int64), 5, 3)


class TestDecode:
    def test_lowest_degree_wins(self):
        poly = np.zeros((1, 1, 5), dtype=np.int64)
        poly[0, 0, 2] = 3
        poly[0, 0, 4] = 9
        assert decode_minplus(poly)[0, 0] == 2

    def test_zero_polynomial_is_inf(self):
        poly = np.zeros((1, 1, 5), dtype=np.int64)
        assert decode_minplus(poly)[0, 0] == INF


class TestRoundTrip:
    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(min_value=0, max_value=10**6),
        st.integers(min_value=2, max_value=8),
        st.integers(min_value=1, max_value=6),
    )
    def test_product_equals_distance_product(self, seed, size, max_entry):
        rng = np.random.default_rng(seed)
        s = rng.integers(0, max_entry + 1, (size, size), dtype=np.int64)
        t = rng.integers(0, max_entry + 1, (size, size), dtype=np.int64)
        s[rng.random((size, size)) < 0.25] = INF
        t[rng.random((size, size)) < 0.25] = INF
        es = encode_minplus(s, max_entry, max_entry + 1)
        et = encode_minplus(t, max_entry, max_entry + 1)
        got = decode_minplus(POLYNOMIAL.matmul(es, et))
        want = MIN_PLUS.matmul(s, t)
        assert np.array_equal(got, want)

    def test_coefficients_count_witnesses(self):
        # Two distinct inner indices realise the same sum -> coefficient 2.
        s = np.array([[1, 1]], dtype=np.int64)
        t = np.array([[2], [2]], dtype=np.int64)
        es = encode_minplus(s, 2, 3)
        et = encode_minplus(t, 2, 3)
        product = POLYNOMIAL.matmul(es, et)
        assert product[0, 0, 3] == 2

    def test_rectangular_shapes(self):
        a = np.zeros((2, 3, 2), dtype=np.int64)
        b = np.zeros((3, 4, 3), dtype=np.int64)
        assert POLYNOMIAL.matmul(a, b).shape == (2, 4, 4)
