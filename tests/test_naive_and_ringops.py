"""Tests for the naive baseline matmul and ring width accounting."""

from __future__ import annotations

import numpy as np
import pytest
from kernel_reference import poly_matmul
from tuple_reference import array_words

from repro.algebra.polynomial import POLYNOMIAL
from repro.algebra.semirings import MIN_PLUS, PLUS_TIMES
from repro.clique import CongestedClique
from repro.constants import INF
from repro.matmul.naive import broadcast_matmul


class TestNaiveMatmul:
    def test_integer_product(self, rng):
        n = 12
        s = rng.integers(-9, 10, (n, n), dtype=np.int64)
        t = rng.integers(-9, 10, (n, n), dtype=np.int64)
        clique = CongestedClique(n)
        assert np.array_equal(broadcast_matmul(clique, s, t), s @ t)

    def test_rounds_are_linear(self, rng):
        rounds = []
        for n in (8, 16, 32):
            s = rng.integers(0, 2, (n, n), dtype=np.int64)
            clique = CongestedClique(n)
            broadcast_matmul(clique, s, s)
            rounds.append(clique.rounds)
        assert rounds == [8, 16, 32]

    def test_minplus_with_witnesses(self, rng):
        n = 10
        s = rng.integers(0, 20, (n, n), dtype=np.int64)
        t = rng.integers(0, 20, (n, n), dtype=np.int64)
        clique = CongestedClique(n)
        product, witness = broadcast_matmul(
            clique, s, t, MIN_PLUS, with_witnesses=True
        )
        assert np.array_equal(product, MIN_PLUS.matmul(s, t))
        for u in range(n):
            for v in range(n):
                k = int(witness[u, v])
                assert s[u, k] + t[k, v] == product[u, v]

    def test_shape_validation(self, rng):
        clique = CongestedClique(8)
        with pytest.raises(ValueError):
            broadcast_matmul(
                clique,
                rng.integers(0, 2, (4, 4), dtype=np.int64),
                rng.integers(0, 2, (4, 4), dtype=np.int64),
            )

    @pytest.mark.parametrize("n", [27, 64, 125])
    def test_semiring3d_beats_naive_at_scale(self, n, rng):
        """The O(n) broadcast baseline that Theorem 1's O(n^{1/3})
        improves on, at the cube sizes."""
        from repro.matmul.semiring3d import semiring_matmul

        s = rng.integers(0, 2, (n, n), dtype=np.int64)
        fast = CongestedClique(n)
        semiring_matmul(fast, s, s)
        slow = CongestedClique(n)
        broadcast_matmul(slow, s, s)
        assert fast.rounds < slow.rounds


class TestRingOps:
    def test_integer_entry_words(self):
        arr = np.array([[3, -(2**40)]], dtype=np.int64)
        assert PLUS_TIMES.entry_words(arr, 16) == 3
        assert array_words(PLUS_TIMES, arr, 16) == 6

    def test_integer_matmul(self, rng):
        a = rng.integers(-5, 6, (4, 4), dtype=np.int64)
        b = rng.integers(-5, 6, (4, 4), dtype=np.int64)
        assert np.array_equal(PLUS_TIMES.matmul(a, b), a @ b)

    def test_polynomial_entry_words_include_degree(self):
        arr = np.ones((2, 2, 5), dtype=np.int64)
        assert POLYNOMIAL.entry_words(arr, 16) == 5
        assert array_words(POLYNOMIAL, arr, 16) == 4 * 5

    def test_polynomial_matmul_is_convolution(self, rng):
        a = rng.integers(0, 2, (3, 3, 2), dtype=np.int64)
        b = rng.integers(0, 2, (3, 3, 3), dtype=np.int64)
        assert np.array_equal(POLYNOMIAL.matmul(a, b), poly_matmul(a, b))

    def test_polynomial_batch_matches_per_block_oracle(self, rng):
        a = rng.integers(-4, 5, (5, 3, 4, 3), dtype=np.int64)
        b = rng.integers(-4, 5, (5, 4, 2, 2), dtype=np.int64)
        a[1] = 0  # an all-zero block rides along the batched skip
        want = np.stack([poly_matmul(a[i], b[i]) for i in range(5)])
        assert np.array_equal(POLYNOMIAL.matmul_batch(a, b), want)

    def test_polynomial_batch_rejects_scalar_blocks(self):
        flat = np.ones((2, 3, 3), dtype=np.int64)
        with pytest.raises(ValueError, match="polynomial batch shapes"):
            POLYNOMIAL.matmul_batch(flat, flat)

    def test_empty_arrays_are_free(self):
        assert array_words(PLUS_TIMES, np.zeros((0, 3), dtype=np.int64), 16) == 0
