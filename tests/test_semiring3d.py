"""Tests for the §2.1 3D semiring matrix multiplication."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from schedule_reference import certify

from repro.algebra.semirings import BOOLEAN, MAX_MIN, MIN_PLUS, PLUS_TIMES
from repro.clique import CongestedClique
from repro.constants import INF
from repro.errors import CliqueSizeError
from repro.matmul.exponent import fit_exponent, predicted_semiring3d_rounds
from repro.matmul.semiring3d import semiring_matmul


def _signed_inputs(n):
    rng = np.random.default_rng(n)
    return (
        rng.integers(-9, 10, (n, n), dtype=np.int64),
        rng.integers(-9, 10, (n, n), dtype=np.int64),
    )


def _minplus_matrix(rng, n):
    mat = rng.integers(0, 40, (n, n), dtype=np.int64)
    mat[rng.random((n, n)) < 0.2] = INF
    return mat


class TestCorrectness:
    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_integer_product_matches_numpy(self, seed):
        rng = np.random.default_rng(seed)
        n = 27
        s = rng.integers(-9, 10, (n, n), dtype=np.int64)
        t = rng.integers(-9, 10, (n, n), dtype=np.int64)
        clique = CongestedClique(n)
        assert np.array_equal(semiring_matmul(clique, s, t, PLUS_TIMES), s @ t)

    def test_boolean_product(self, rng):
        n = 27
        s = (rng.random((n, n)) < 0.3).astype(np.int64)
        t = (rng.random((n, n)) < 0.3).astype(np.int64)
        clique = CongestedClique(n)
        got = semiring_matmul(clique, s, t, BOOLEAN)
        assert np.array_equal(got, ((s @ t) > 0).astype(np.int64))

    def test_minplus_product(self, rng):
        n = 27
        s = _minplus_matrix(rng, n)
        t = _minplus_matrix(rng, n)
        clique = CongestedClique(n)
        got = semiring_matmul(clique, s, t, MIN_PLUS)
        assert np.array_equal(got, MIN_PLUS.matmul(s, t))

    def test_maxmin_product(self, rng):
        n = 8
        s = rng.integers(-9, 10, (n, n), dtype=np.int64)
        t = rng.integers(-9, 10, (n, n), dtype=np.int64)
        clique = CongestedClique(n)
        got = semiring_matmul(clique, s, t, MAX_MIN)
        assert np.array_equal(got, MAX_MIN.matmul(s, t))

    def test_larger_clique(self, rng):
        n = 64
        s = rng.integers(0, 5, (n, n), dtype=np.int64)
        t = rng.integers(0, 5, (n, n), dtype=np.int64)
        clique = CongestedClique(n)
        assert np.array_equal(semiring_matmul(clique, s, t), s @ t)


class TestWitnesses:
    def test_minplus_witnesses_valid(self, rng):
        n = 27
        s = _minplus_matrix(rng, n)
        t = _minplus_matrix(rng, n)
        clique = CongestedClique(n)
        product, witness = semiring_matmul(
            clique, s, t, MIN_PLUS, with_witnesses=True
        )
        assert np.array_equal(product, MIN_PLUS.matmul(s, t))
        for u in range(n):
            for v in range(n):
                if product[u, v] < INF:
                    k = int(witness[u, v])
                    assert 0 <= k < n
                    assert s[u, k] + t[k, v] == product[u, v]

    def test_witnesses_rejected_for_rings(self, rng):
        clique = CongestedClique(8)
        mat = rng.integers(0, 3, (8, 8), dtype=np.int64)
        with pytest.raises(ValueError):
            semiring_matmul(clique, mat, mat, PLUS_TIMES, with_witnesses=True)


class TestCosts:
    def test_rounds_match_predictor(self, rng):
        for n in (8, 27, 64):
            s = rng.integers(0, 2, (n, n), dtype=np.int64)
            t = rng.integers(0, 2, (n, n), dtype=np.int64)
            clique = CongestedClique(n)
            semiring_matmul(clique, s, t)
            assert clique.rounds == predicted_semiring3d_rounds(n)

    @pytest.mark.parametrize("n", [27, 64, 125, 216])
    def test_table1_rounds_match_predictor(self, n):
        """Table 1 "matrix multiplication (semiring)": O(n^{1/3}) rounds,
        exactly the closed form, on signed inputs at the cube sizes."""
        s, t = _signed_inputs(n)
        clique = CongestedClique(n)
        assert np.array_equal(semiring_matmul(clique, s, t), s @ t)
        assert clique.rounds == predicted_semiring3d_rounds(n)

    def test_rounds_exponent(self):
        sizes = [27, 64, 125, 216]
        rounds = []
        for n in sizes:
            s, t = _signed_inputs(n)
            clique = CongestedClique(n)
            semiring_matmul(clique, s, t)
            rounds.append(clique.rounds)
        assert 0.2 < fit_exponent(sizes, rounds) < 0.45

    def test_fig1_load_balance(self):
        """Figure 1's partition balances step 1: self-addressed pieces are
        free local moves, so node loads differ only by the O(n^{2/3}) words
        a node keeps for itself."""
        n = 64
        rng = np.random.default_rng(0)
        s = rng.integers(0, 2, (n, n), dtype=np.int64)
        t = rng.integers(0, 2, (n, n), dtype=np.int64)
        clique = CongestedClique(n)
        semiring_matmul(clique, s, t)
        step1 = next(p for p in clique.meter.phases if "step1" in p.phase)
        assert step1.max_send_words <= step1.words / n * 1.05
        assert step1.max_send_words <= 2 * round(n ** (4 / 3))

    def test_witness_runs_cost_more(self, rng):
        n = 27
        s = _minplus_matrix(rng, n)
        t = _minplus_matrix(rng, n)
        plain = CongestedClique(n)
        semiring_matmul(plain, s, t, MIN_PLUS)
        with_wit = CongestedClique(n)
        semiring_matmul(with_wit, s, t, MIN_PLUS, with_witnesses=True)
        assert with_wit.rounds > plain.rounds

    def test_scaling_is_sublinear(self, rng):
        rounds = []
        for n in (27, 64, 125):
            s = rng.integers(0, 2, (n, n), dtype=np.int64)
            clique = CongestedClique(n)
            semiring_matmul(clique, s, s)
            rounds.append(clique.rounds)
        # Rounds grow much slower than n: ~ n^{1/3}.
        assert rounds[2] / rounds[0] < (125 / 27) ** 0.5

    @pytest.mark.parametrize("n", [8, 27])
    def test_bills_are_certified(self, n, rng):
        """Every charge matches an explicit relay schedule, so the bill is
        the closed form exactly."""
        s = rng.integers(0, 3, (n, n), dtype=np.int64)
        t = rng.integers(0, 3, (n, n), dtype=np.int64)
        plain = CongestedClique(n)
        certified = CongestedClique(n)
        certifier = certify(certified)
        p_plain = semiring_matmul(plain, s, t)
        p_certified = semiring_matmul(certified, s, t)
        assert np.array_equal(p_plain, p_certified)
        assert certified.rounds == plain.rounds
        assert certifier.total == len(certified.meter.phases)
        assert certifier.certified["route"] == 2
        assert certified.rounds == predicted_semiring3d_rounds(n)


class TestValidation:
    def test_non_cube_clique_rejected(self, rng):
        clique = CongestedClique(10)
        mat = rng.integers(0, 2, (10, 10), dtype=np.int64)
        with pytest.raises(CliqueSizeError):
            semiring_matmul(clique, mat, mat)

    def test_wrong_shape_rejected(self, rng):
        clique = CongestedClique(8)
        with pytest.raises(ValueError):
            semiring_matmul(
                clique,
                rng.integers(0, 2, (4, 4), dtype=np.int64),
                rng.integers(0, 2, (4, 4), dtype=np.int64),
            )
