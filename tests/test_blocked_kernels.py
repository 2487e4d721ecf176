"""Property tests: the semiring kernels vs the retained cube oracle.

The kernels (the narrow-lane selection fold, plain and witnessed, its
column-walk fallback, and the Boolean and ring products) must agree *bit
for bit* -- values and witnesses -- with ``reference_matmul`` /
``cube_matmul_with_witness`` (``tests/kernel_reference.py``), the seed's
cube-materialising kernels kept as independent oracles.  Matrices include
``INF`` / ``-INF`` saturation, negative entries, near-``INF`` finite
entries (which force the exact fallback), and non-square blocks.  The
fold takes its chunks and column stripes from the operand shapes, so those
boundaries are covered through the inputs: inner dimensions around the
tag widths and single blocks big enough to column-stripe.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from kernel_reference import cube_matmul_with_witness, reference_matmul

from repro.algebra import semirings
from repro.algebra.semirings import (
    ALL_SEMIRINGS,
    BOOLEAN,
    MAX_MIN,
    MIN_PLUS,
    PLUS_TIMES,
    saturating_add,
)
from repro.constants import INF

SELECTION = (MIN_PLUS, MAX_MIN)


def _random_block(rng, semiring, shape, *, boundary: bool):
    if semiring is BOOLEAN:
        return (rng.random(shape) < 0.5).astype(np.int64)
    if semiring is MIN_PLUS:
        mat = rng.integers(-40, 200, shape, dtype=np.int64)
        mat[rng.random(shape) < 0.25] = INF
        if boundary:
            # Near-INF finite entries exercise the exact (non-penalty) path.
            mat[rng.random(shape) < 0.15] = INF - 1
            mat[rng.random(shape) < 0.1] = (1 << 59) + 7
        return mat
    if semiring is MAX_MIN:
        mat = rng.integers(-200, 200, shape, dtype=np.int64)
        mat[rng.random(shape) < 0.15] = -INF
        mat[rng.random(shape) < 0.1] = INF
        return mat
    return rng.integers(-50, 50, shape, dtype=np.int64)


class TestBlockedVsReference:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_all_semirings_match_reference(self, seed):
        rng = np.random.default_rng(seed)
        m, k, n = (int(v) for v in rng.integers(1, 14, 3))
        boundary = bool(rng.random() < 0.4)
        for semiring in ALL_SEMIRINGS:
            x = _random_block(rng, semiring, (m, k), boundary=boundary)
            y = _random_block(rng, semiring, (k, n), boundary=boundary)
            assert np.array_equal(
                semiring.matmul(x, y), reference_matmul(semiring, x, y)
            ), semiring.name

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_witnesses_match_cube_kernel(self, seed):
        rng = np.random.default_rng(seed)
        m, k, n = (int(v) for v in rng.integers(1, 14, 3))
        boundary = bool(rng.random() < 0.4)
        for semiring in SELECTION:
            x = _random_block(rng, semiring, (m, k), boundary=boundary)
            y = _random_block(rng, semiring, (k, n), boundary=boundary)
            p_cube, w_cube = cube_matmul_with_witness(semiring, x, y)
            p_blk, w_blk = semiring.matmul_with_witness(x, y)
            assert np.array_equal(p_cube, p_blk), semiring.name
            assert np.array_equal(w_cube, w_blk), semiring.name
            # The witness must actually attain the product value.
            rows = np.arange(m)[:, None]
            cols = np.arange(n)[None, :]
            attained = saturating_add(x[rows, w_blk], y[w_blk, cols]) \
                if semiring is MIN_PLUS else np.minimum(x[rows, w_blk], y[w_blk, cols])
            assert np.array_equal(attained, p_blk), semiring.name

    @pytest.mark.parametrize("k", [1, 7, 8, 9, 15, 16, 17, 25, 33])
    def test_inner_dimensions_off_tile_multiples(self, k):
        """Inner dimensions off the multiples of 8 and 16 (the old kernels'
        tile widths) and on both sides of a power of two, where the
        witness tag gains a bit: the fold must stay exact."""
        rng = np.random.default_rng(k)
        for semiring in SELECTION:
            x = _random_block(rng, semiring, (9, k), boundary=False)
            y = _random_block(rng, semiring, (k, 6), boundary=False)
            expected, expected_w = cube_matmul_with_witness(semiring, x, y)
            assert np.array_equal(semiring.matmul(x, y), expected)
            p, w = semiring.matmul_with_witness(x, y)
            assert np.array_equal(p, expected)
            assert np.array_equal(w, expected_w)

    @pytest.mark.parametrize("k", [64, 75])
    def test_single_block_that_column_stripes(self, k, monkeypatch):
        """One block whose ``m * n`` output overflows the fold's lane
        budget (shrunk here so the oracle stays small): the fold stripes
        the output columns, the last stripe narrower, and must still match
        the cube oracle value for value and witness for witness."""
        monkeypatch.setattr(semirings, "_FOLD_ENTRIES", 1 << 12)
        rng = np.random.default_rng(k)
        m, n = 96, 100
        assert m * n > semirings._FOLD_ENTRIES and n % (semirings._FOLD_ENTRIES // m)
        for semiring in SELECTION:
            x = _random_block(rng, semiring, (m, k), boundary=False)
            y = _random_block(rng, semiring, (k, n), boundary=False)
            expected, expected_w = cube_matmul_with_witness(semiring, x, y)
            p, w = semiring.matmul_with_witness(x, y)
            assert np.array_equal(p, expected), semiring.name
            assert np.array_equal(w, expected_w), semiring.name
            assert np.array_equal(semiring.matmul(x, y), expected)

    @pytest.mark.parametrize("hi", [1 << 53, 1 << 55, 1 << 58])
    def test_entries_too_wide_to_pack_take_the_walk(self, hi):
        """Finite min-plus entries too wide for tagged ``int64`` lanes at
        k=64: the column walk must reproduce the cube oracle bit for bit,
        ties included."""
        rng = np.random.default_rng(hi % 1000)
        k = 64
        x = rng.integers(-hi, hi + 1, (12, k), dtype=np.int64)
        y = rng.integers(-hi, hi + 1, (k, 10), dtype=np.int64)
        # Coarse values force ties between inner indices.
        x -= x % (hi >> 3)
        y -= y % (hi >> 3)
        x[rng.random(x.shape) < 0.25] = INF
        y[rng.random(y.shape) < 0.25] = INF
        x[3] = INF  # an all-infinite row: (INF, witness 0)
        assert MIN_PLUS._lanes(x[None], y[None], kbits=6) is None
        expected, expected_w = cube_matmul_with_witness(MIN_PLUS, x, y)
        p, w = MIN_PLUS.matmul_with_witness(x, y)
        assert np.array_equal(p, expected)
        assert np.array_equal(w, expected_w)
        assert np.all(p[3] == INF) and np.all(w[3] == 0)
        bp, bw = MIN_PLUS.matmul_batch_with_witness(
            np.stack([x, x]), np.stack([y, y])
        )
        assert np.array_equal(bp, np.stack([expected, expected]))
        assert np.array_equal(bw, np.stack([expected_w, expected_w]))
        assert np.array_equal(MIN_PLUS.matmul(x, y), expected)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_block_products_are_a_batch_of_one(self, seed):
        rng = np.random.default_rng(seed)
        m, k, n = (int(v) for v in rng.integers(1, 20, 3))
        boundary = bool(rng.random() < 0.4)
        for semiring in ALL_SEMIRINGS:
            x = _random_block(rng, semiring, (m, k), boundary=boundary)
            y = _random_block(rng, semiring, (k, n), boundary=boundary)
            batch = semiring.matmul_batch(x[None], y[None])
            assert np.array_equal(semiring.matmul(x, y), batch[0])
            if semiring.has_witnesses:
                bp, bw = semiring.matmul_batch_with_witness(x[None], y[None])
                p, w = semiring.matmul_with_witness(x, y)
                assert np.array_equal(p, bp[0]) and np.array_equal(w, bw[0])
            else:
                with pytest.raises(NotImplementedError):
                    semiring.matmul_with_witness(x, y)

    def test_empty_inner_dimension(self):
        x = np.zeros((3, 0), dtype=np.int64)
        y = np.zeros((0, 4), dtype=np.int64)
        for semiring in SELECTION:
            product = semiring.matmul(x, y)
            assert product.shape == (3, 4)
            assert np.all(product == semiring.zero_value)

    def test_shape_mismatch_raises(self):
        x = np.zeros((3, 4), dtype=np.int64)
        y = np.zeros((5, 2), dtype=np.int64)
        with pytest.raises(ValueError):
            MIN_PLUS.matmul(x, y)

    def test_plus_times_is_plain_matmul(self):
        rng = np.random.default_rng(0)
        x = rng.integers(-9, 9, (7, 5), dtype=np.int64)
        y = rng.integers(-9, 9, (5, 8), dtype=np.int64)
        assert np.array_equal(PLUS_TIMES.matmul(x, y), x @ y)


class TestSaturatingAdd:
    """Regression tests at the INF boundary (int64 overflow exposure)."""

    def test_inf_plus_inf_saturates_without_overflow(self):
        a = np.array([INF, INF, INF], dtype=np.int64)
        b = np.array([INF, 0, -5], dtype=np.int64)
        with np.errstate(over="raise"):
            out = saturating_add(a, b)
        assert np.array_equal(out, np.array([INF, INF, INF], dtype=np.int64))

    def test_infinite_operand_dominates_negative_addend(self):
        # INF + (-5) must stay INF, not become a huge finite distance.
        assert saturating_add(np.int64(INF), np.int64(-5)) == INF
        assert saturating_add(np.int64(-5), np.int64(INF)) == INF

    def test_near_inf_finite_sums_clip_at_inf(self):
        a = np.array([INF - 1, INF - 1], dtype=np.int64)
        b = np.array([INF - 1, 0], dtype=np.int64)
        out = saturating_add(a, b)
        assert out[0] == INF  # (INF-1) + (INF-1) saturates
        assert out[1] == INF - 1  # still finite: below the sentinel

    def test_finite_arithmetic_untouched(self):
        a = np.array([3, -7, 0], dtype=np.int64)
        b = np.array([4, 2, -1], dtype=np.int64)
        assert np.array_equal(saturating_add(a, b), np.array([7, -5, -1]))

    def test_minplus_product_at_inf_boundary_matches_cube(self):
        # A matrix full of INF and INF-1 forces the exact fallback path and
        # must still agree with the cube oracle entry for entry.
        x = np.array([[INF, INF - 1], [0, INF]], dtype=np.int64)
        y = np.array([[INF, 1], [INF - 1, INF]], dtype=np.int64)
        p_cube, w_cube = cube_matmul_with_witness(MIN_PLUS, x, y)
        p_blk, w_blk = MIN_PLUS.matmul_with_witness(x, y)
        assert np.array_equal(p_cube, p_blk)
        assert np.array_equal(w_cube, w_blk)
        assert np.array_equal(MIN_PLUS.matmul(x, y), p_cube)
        # Fully unreachable rows stay saturated.
        assert p_blk[0, 0] == INF and w_blk[0, 0] == 0

    def test_unreachable_entries_stay_unreachable_through_squaring(self):
        dist = np.full((4, 4), INF, dtype=np.int64)
        np.fill_diagonal(dist, 0)
        dist[0, 1] = 3
        squared = MIN_PLUS.matmul(dist, dist)
        assert squared[0, 1] == 3
        assert squared[2, 3] == INF
        assert squared[0, 2] == INF

