"""The narrow-lane selection fold: lane rule, head-room edges, operand dtypes.

Every min-plus and max-min product -- plain and witnessed -- packs its
operands into the narrowest of ``int16``/``int32``/``int64`` lanes that
keeps ``top << kbits < 2^(w-2)`` (``top = 2P`` for min-plus, ``P`` for
max-min, ``P`` the penalty) and falls back to the column walk when no lane
does.  These tests state that rule independently of the kernel, check it
selects the lane it should at the largest finite bound each lane holds and
one past it, and check values and witnesses against the cube oracle
(``tests/kernel_reference.py``) right at those edges: serial and
``threaded:2``, batches and a single block wide enough to column-stripe,
infinite rows, negative entries and ties.  The operand-dtype tests pin
the cast-or-refuse rule of ``_check_batch`` / ``_check_block``.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from kernel_reference import column_walk, cube_matmul_with_witness

from repro.algebra import semirings
from repro.algebra.semirings import (
    ALL_SEMIRINGS,
    MAX_MIN,
    MIN_PLUS,
    MinPlusSemiring,
)
from repro.clique.executor import Executor
from repro.constants import INF
from repro.distances import apsp_exact
from repro.graphs import apsp_reference, random_weighted_digraph

SELECTION = (MIN_PLUS, MAX_MIN)
LANES = (np.int16, np.int32, np.int64)
INNER = (1, 7, 8, 9, 64, 65)


def kbits_for(k: int, witnessed: bool) -> int:
    return (k - 1).bit_length() if witnessed else 0


def lane_edge(semiring, lane, kbits: int) -> int:
    """The largest finite bound ``F`` whose product fits ``lane``.

    Min-plus: ``P = 2^max(3, bitlen(4F))`` and ``2P << kbits < 2^(w-2)``,
    so ``bitlen(4F) <= w - 4 - kbits``.  Max-min: ``P = 2F + 2`` and
    ``P << kbits < 2^(w-2)``.
    """
    w = np.iinfo(lane).bits
    if semiring is MIN_PLUS:
        return (1 << (w - 6 - kbits)) - 1
    return (1 << (w - 3 - kbits)) - 2


def expected_lane(semiring, bound: int, kbits: int):
    """The lane the rule picks for finite bound ``bound`` (``None``: walk)."""
    for lane in LANES:
        if bound <= lane_edge(semiring, lane, kbits):
            return lane
    return None


def picked_lane(semiring, x, y, kbits: int):
    lanes = semiring._lanes(np.asarray(x), np.asarray(y), kbits)
    return None if lanes is None else np.dtype(lanes.dtype).type


class TestLaneRule:
    @pytest.mark.parametrize("semiring", SELECTION, ids=lambda s: s.name)
    @pytest.mark.parametrize("kbits", [0, 3, 6, 7])
    @pytest.mark.parametrize("index", range(len(LANES)))
    def test_edges_select_lane_and_next(self, semiring, kbits, index):
        lane = LANES[index]
        edge = lane_edge(semiring, lane, kbits)
        following = LANES[index + 1] if index + 1 < len(LANES) else None
        for sign in (1, -1):
            x = np.array([[[sign * edge, 0]]], dtype=np.int64)
            y = np.array([[[1], [INF]]], dtype=np.int64)
            assert picked_lane(semiring, x, y, kbits) is lane
            x[0, 0, 0] = sign * (edge + 1)
            assert picked_lane(semiring, x, y, kbits) is following

    @pytest.mark.parametrize("outside", [INF + 5, -INF - 5])
    def test_max_min_outside_the_extended_order_takes_the_walk(self, outside):
        """An entry beyond +-INF cannot be encoded without clipping it; the
        walk keeps it exact, plain and witnessed alike."""
        rng = np.random.default_rng(0)
        x = rng.integers(-50, 50, (2, 3, 4), dtype=np.int64)
        y = rng.integers(-50, 50, (2, 4, 5), dtype=np.int64)
        x[0, 1, 2] = outside
        y[0, 2, :] = outside
        assert MAX_MIN._lanes(x, y, kbits=2) is None
        want, want_w = column_walk(MAX_MIN, x, y)
        got, got_w = MAX_MIN.matmul_batch_with_witness(x, y)
        assert np.array_equal(got, want) and np.array_equal(got_w, want_w)
        assert np.array_equal(MAX_MIN.matmul_batch(x, y), want)
        for b in range(2):
            assert np.array_equal(want[b], cube_matmul_with_witness(MAX_MIN, x[b], y[b])[0])

    def test_perfbench_scale_squarings_run_in_int32(self):
        """Distances below 2^16 at k = 64 (the n = 512 engine blocks)."""
        x = np.array([[[200, INF]]], dtype=np.int64)
        assert picked_lane(MIN_PLUS, x, x.transpose(0, 2, 1), 6) is np.int32

    @pytest.mark.parametrize(
        ("weight", "lane"),
        [
            (3, np.int16),
            (1000, np.int32),
            (1_000_000_000, np.int64),
            (73201365371863300, None),
        ],
    )
    def test_cli_weights_select_their_lane(self, weight, lane):
        """``python -m repro apsp 64 --max-weight W`` (seed 0): every
        squaring of the closure runs in the lane the weight selects, and
        the distances match Floyd-Warshall."""
        seen = []
        pick = MinPlusSemiring._lanes

        def spy(self, x, y, kbits):
            lanes = pick(self, x, y, kbits)
            seen.append(None if lanes is None else np.dtype(lanes.dtype).type)
            return lanes

        graph = random_weighted_digraph(64, 0.35, weight, seed=0)
        with mock.patch.object(MinPlusSemiring, "_lanes", spy):
            result = apsp_exact(graph, method="semiring")
        assert seen and set(seen) == {lane}
        assert np.array_equal(result.value, apsp_reference(graph))


def _operands(rng, semiring, shape_x, shape_y, bound: int):
    """Operands whose largest finite magnitude is exactly ``bound``.

    Entries come from a few values around the bound (so sums and minima
    tie across inner indices) plus uniform draws; infinite entries are
    sprinkled in and whole rows/columns made infinite.
    """
    mats = []
    for shape in (shape_x, shape_y):
        picks = np.array([-bound, -(bound // 2), 0, bound // 3, bound], dtype=np.int64)
        mat = picks[rng.integers(0, len(picks), shape)]
        uniform = rng.random(shape) < 0.3
        mat[uniform] = rng.integers(-bound, bound + 1, int(uniform.sum()))
        mat[rng.random(shape) < 0.15] = INF
        if semiring is MAX_MIN:
            mat[rng.random(shape) < 0.15] = -INF
        mats.append(mat)
    x, y = mats
    m, n = x.shape[1], y.shape[2]
    if m >= 2:
        x[:, -1, :] = INF  # an infinite row
    if semiring is MAX_MIN and m >= 3:
        x[:, 0, :] = -INF
    if n >= 2:
        y[:, :, -1] = INF  # an infinite column
    x[0, 1 if m >= 3 else 0, 0] = bound if rng.random() < 0.5 else -bound
    return x, y


class TestLaneEdges:
    @settings(max_examples=60, deadline=None)
    @given(
        semiring=st.sampled_from(SELECTION),
        witnessed=st.booleans(),
        threads=st.sampled_from([1, 2]),
        k=st.sampled_from(INNER),
        lane_index=st.integers(0, len(LANES) - 1),
        past_edge=st.booleans(),
        wide=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_values_and_witnesses_match_cube_oracle(
        self, semiring, witnessed, threads, k, lane_index, past_edge, wide, seed
    ):
        rng = np.random.default_rng(seed)
        kbits = kbits_for(k, witnessed)
        bound = lane_edge(semiring, LANES[lane_index], kbits) + past_edge
        if wide:
            # One block wider than the (shrunk) lane budget: the fold
            # stripes its columns, per thread when threaded.
            batch, m, n, budget = 1, 8, 300, 1 << 10
        else:
            batch, m, n = (int(v) for v in rng.integers(1, 7, 3))
            budget = int(rng.choice([1 << 6, semirings._FOLD_ENTRIES]))
        x, y = _operands(rng, semiring, (batch, m, k), (batch, k, n), bound)
        assert picked_lane(semiring, x, y, kbits) is expected_lane(
            semiring, bound, kbits
        )
        with mock.patch.object(semirings, "_FOLD_ENTRIES", budget):
            if witnessed:
                values, witness = semiring.matmul_batch_with_witness(
                    x, y, threads=threads
                )
            else:
                values = semiring.matmul_batch(x, y, threads=threads)
        for b in range(batch):
            want, want_w = cube_matmul_with_witness(semiring, x[b], y[b])
            assert np.array_equal(values[b], want)
            if witnessed:
                assert np.array_equal(witness[b], want_w)

    @pytest.mark.parametrize("semiring", SELECTION, ids=lambda s: s.name)
    def test_single_block_striped_at_the_real_budget(self, semiring):
        """``m * n`` just above the lane budget, unshrunk."""
        rng = np.random.default_rng(5)
        m, k = 2, 9
        n = semirings._FOLD_ENTRIES // m + 37
        x, y = _operands(rng, semiring, (1, m, k), (1, k, n), 1000)
        values, witness = semiring.matmul_batch_with_witness(x, y)
        want, want_w = column_walk(semiring, x, y)
        assert np.array_equal(values, want)
        assert np.array_equal(witness, want_w)
        assert np.array_equal(semiring.matmul_batch(x, y), want)

    @pytest.mark.parametrize("semiring", SELECTION, ids=lambda s: s.name)
    @pytest.mark.parametrize("k", [0, 5])
    def test_out_is_filled_on_every_path(self, semiring, k):
        """``out=`` receives the fold's, the walk's and the empty product's
        result, through views like the engine's send buffer."""
        rng = np.random.default_rng(k)
        for bound in (50, 1 << 60):  # int16/int32 lanes, then the walk
            x = rng.integers(-bound, bound, (3, 4, k), dtype=np.int64)
            y = rng.integers(-bound, bound, (3, k, 6), dtype=np.int64)
            send = np.full((3, 4, 2, 6), 12345, dtype=np.int64)
            out = (send[:, :, 0], send[:, :, 1])
            got = semiring.matmul_batch_with_witness(x, y, out=out)
            assert got[0] is out[0] and got[1] is out[1]
            want, want_w = column_walk(semiring, x, y)
            assert np.array_equal(send[:, :, 0], want)
            assert np.array_equal(send[:, :, 1], want_w)

    def test_out_shape_and_dtype_are_checked(self):
        x = np.zeros((2, 3, 4), dtype=np.int64)
        y = np.zeros((2, 4, 5), dtype=np.int64)
        good = np.zeros((2, 3, 5), dtype=np.int64)
        for bad in (np.zeros((2, 5, 3), dtype=np.int64), good.astype(np.int32)):
            with pytest.raises(ValueError, match="out arrays"):
                MIN_PLUS.matmul_batch_with_witness(x, y, out=(good, bad))
        with pytest.raises(ValueError, match="witnessed"):
            Executor().semiring_products(MIN_PLUS, x, y, out=(good, good))


#: Integer and bool dtypes that cast safely to int64, with an entry bound
#: each holds (the packed encode once overflowed in the narrower ones).
ACCEPTED = {
    np.int8: 1 << 6,
    np.int16: 1 << 12,
    np.int32: 1 << 26,
    np.uint8: 255,
    np.uint16: 1 << 12,
    np.uint32: 1 << 26,
    np.bool_: 1,
}
REFUSED = (np.float64, np.float32, np.complex128, object, np.uint64)


def _witnessed_cases():
    for semiring in ALL_SEMIRINGS:
        yield pytest.param(semiring, False, id=f"{semiring.name}-plain")
        if semiring.has_witnesses:
            yield pytest.param(semiring, True, id=f"{semiring.name}-witnessed")


class TestOperandDtypes:
    @pytest.mark.parametrize(("semiring", "witnessed"), list(_witnessed_cases()))
    @pytest.mark.parametrize("dtype", list(ACCEPTED), ids=lambda d: np.dtype(d).name)
    def test_narrow_integer_blocks_equal_the_int64_product(
        self, semiring, witnessed, dtype
    ):
        rng = np.random.default_rng(0)
        bound = ACCEPTED[dtype]
        lo = 0 if np.dtype(dtype).kind in "ub" else -bound
        x = rng.integers(lo, bound + 1, (9, 64)).astype(dtype)
        y = rng.integers(lo, bound + 1, (64, 11)).astype(dtype)
        x64, y64 = x.astype(np.int64), y.astype(np.int64)
        if witnessed:
            got, got_w = semiring.matmul_with_witness(x, y)
            want, want_w = semiring.matmul_with_witness(x64, y64)
            assert np.array_equal(got_w, want_w)
            batch, batch_w = semiring.matmul_batch_with_witness(x[None], y[None])
            assert np.array_equal(batch_w[0], want_w)
        else:
            got = semiring.matmul(x, y)
            want = semiring.matmul(x64, y64)
            batch = semiring.matmul_batch(x[None], y[None])
        assert got.dtype == np.int64
        assert np.array_equal(got, want)
        assert np.array_equal(batch[0], want)
        if semiring.has_witnesses:
            assert np.array_equal(want, cube_matmul_with_witness(semiring, x64, y64)[0])

    @pytest.mark.parametrize(("semiring", "witnessed"), list(_witnessed_cases()))
    @pytest.mark.parametrize("dtype", REFUSED, ids=lambda d: np.dtype(d).name)
    def test_other_dtypes_are_refused_by_name(self, semiring, witnessed, dtype):
        x = np.ones((3, 4), dtype=dtype)
        y = np.ones((4, 2), dtype=np.int64)
        name = np.dtype(dtype).name
        product = semiring.matmul_with_witness if witnessed else semiring.matmul
        batched = (
            semiring.matmul_batch_with_witness if witnessed else semiring.matmul_batch
        )
        with pytest.raises(ValueError, match=name):
            product(x, y)
        with pytest.raises(ValueError, match=name):
            product(y.T, x.T)
        with pytest.raises(ValueError, match=name):
            batched(x[None], y[None])

    def test_polynomial_ring_keeps_its_own_axes(self):
        """The block check casts but leaves trailing ring axes alone."""
        from repro.algebra.polynomial import POLYNOMIAL

        x = np.ones((2, 3, 2), dtype=np.int32)
        y = np.ones((3, 4, 2), dtype=np.int32)
        got = POLYNOMIAL.matmul(x, y)
        assert got.dtype == np.int64
        assert np.array_equal(got, POLYNOMIAL.matmul(x.astype(np.int64), y.astype(np.int64)))
