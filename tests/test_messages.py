"""Unit tests for word-size arithmetic and exchange input validation."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clique import CongestedClique
from repro.clique.messages import (
    block_widths,
    default_word_bits,
    int_bits,
    words_for_array,
    words_for_value,
)
from repro.errors import CliqueModelError


class TestWordBits:
    def test_minimum_is_16(self):
        assert default_word_bits(2) == 16
        assert default_word_bits(100) == 16

    def test_grows_with_log_n(self):
        assert default_word_bits(2**10) == 20
        assert default_word_bits(2**20) == 40

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            default_word_bits(0)

    @given(st.integers(min_value=1, max_value=10**9))
    def test_word_always_fits_two_node_ids(self, n):
        import math

        bits = default_word_bits(n)
        id_bits = max(1, math.ceil(math.log2(max(2, n))))
        assert bits >= 2 * id_bits


class TestIntBits:
    def test_small_values(self):
        assert int_bits(0) == 2  # sign + 1 magnitude bit
        assert int_bits(1) == 2
        assert int_bits(255) == 9

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            int_bits(-1)

    @given(st.integers(min_value=0, max_value=2**60))
    def test_monotone(self, x):
        assert int_bits(x + 1) >= int_bits(x)


class TestWordsForValue:
    def test_unit_width_small_values(self):
        assert words_for_value(100, 16) == 1

    def test_wide_values_need_more_words(self):
        assert words_for_value(2**40, 16) == 3  # 42 bits / 16

    @given(
        st.integers(min_value=0, max_value=2**62 - 1),
        st.integers(min_value=8, max_value=64),
    )
    def test_width_covers_encoding(self, value, word_bits):
        words = words_for_value(value, word_bits)
        assert words * word_bits >= int_bits(value)


class TestWordsForArray:
    def test_empty_array_is_free(self):
        assert words_for_array(np.array([], dtype=np.int64), 16) == 0

    def test_unit_entries(self):
        arr = np.ones(10, dtype=np.int64)
        assert words_for_array(arr, 16) == 10

    def test_wide_entries_charged_per_entry(self):
        arr = np.full(4, 2**40, dtype=np.int64)
        assert words_for_array(arr, 16) == 12

    def test_bool_arrays(self):
        arr = np.ones(6, dtype=bool)
        assert words_for_array(arr, 16) == 6

    def test_width_uses_max_abs(self):
        arr = np.array([1, -(2**40)], dtype=np.int64)
        assert words_for_array(arr, 16) == 2 * 3


def _one_piece(n: int, sender: int, piece, *, dst: int = 0, width: int = 1):
    """A batch in which only ``sender`` ships ``piece`` (one piece) to ``dst``."""
    piece = np.asarray(piece)
    nothing = np.zeros(0, dtype=np.int64)
    dests = [np.array([dst]) if v == sender else nothing for v in range(n)]
    blocks = [
        piece[None] if v == sender else np.zeros((0,) + piece.shape, dtype=np.int64)
        for v in range(n)
    ]
    widths = [np.array([width]) if v == sender else nothing for v in range(n)]
    return dests, blocks, widths


class TestBatchValidation:
    """Structural checks the array collectives apply to every batch."""

    def test_wrong_length(self):
        clique = CongestedClique(2)
        with pytest.raises(CliqueModelError, match="expected 2 per-node batches"):
            clique.route_array([np.array([1])], [np.ones((1, 1), dtype=np.int64)])

    def test_nonpositive_width(self):
        dests, blocks, widths = _one_piece(2, 0, [1], dst=1, width=0)
        with pytest.raises(CliqueModelError, match="non-positive word count"):
            CongestedClique(2).route_array(dests, blocks, widths=widths)


class TestPayloadHygiene:
    """Pieces no fixed-width word encoding exists for die loudly, naming the node.

    Words are integers in this model: a float, NaN/inf or object-dtype
    piece is refused before any width is computed, never floored or wrapped.
    """

    def test_nan_payload_names_node(self):
        dests, blocks, widths = _one_piece(2, 1, [float("nan")])
        with pytest.raises(CliqueModelError, match="node 1: pieces of dtype float64"):
            CongestedClique(2).route_array(dests, blocks, widths=widths)

    def test_inf_payload_rejected(self):
        dests, blocks, widths = _one_piece(2, 0, [float("inf")], dst=1)
        with pytest.raises(CliqueModelError, match="node 0"):
            CongestedClique(2).send_array(dests, blocks, widths=widths)

    def test_object_dtype_array_names_node(self):
        bad = np.array([object(), object()], dtype=object)
        dests, blocks, widths = _one_piece(2, 1, bad, width=2)
        with pytest.raises(CliqueModelError, match="node 1: pieces of dtype object"):
            CongestedClique(2).route_array(dests, blocks, widths=widths)

    def test_nan_array_entries_name_node(self):
        dests, blocks, _ = _one_piece(2, 0, [1.0, float("nan")], dst=1)
        with pytest.raises(CliqueModelError, match="node 0: pieces of dtype float64"):
            CongestedClique(2).route_array(dests, blocks)

    def test_finite_float_arrays_refused(self):
        # A fractional float has no integer word encoding either: the piece
        # must be refused, not floored to [1, -2] on delivery.
        dests, blocks, widths = _one_piece(2, 0, [1.5, -2.0], dst=1, width=2)
        with pytest.raises(CliqueModelError, match="node 0: pieces of dtype float64"):
            CongestedClique(2).route_array(dests, blocks, widths=widths)

    def test_negative_width_names_node(self):
        dests, blocks, widths = _one_piece(2, 1, [1], width=-3)
        with pytest.raises(CliqueModelError, match="node 1: non-positive word count"):
            CongestedClique(2).route_array(dests, blocks, widths=widths)


class TestBlockWidths:
    """PR 6 satellite: batch width helpers reject unchargeable batches."""

    def test_object_dtype_batch_rejected(self):
        from repro.clique.messages import block_widths

        bad = np.empty((2, 2), dtype=object)
        bad.fill("x")
        with pytest.raises(ValueError, match="object-dtype batch"):
            block_widths(bad, 16)

    def test_nan_batch_names_offending_piece(self):
        from repro.clique.messages import block_widths

        blocks = np.ones((3, 2))
        blocks[2, 1] = float("nan")
        with pytest.raises(ValueError, match="piece 2"):
            block_widths(blocks, 16)

    def test_flat_batch_rejected(self):
        from repro.clique.messages import block_widths

        with pytest.raises(ValueError, match="batch"):
            block_widths(np.arange(4), 16)

    def test_empty_trailing_shape_is_free(self):
        from repro.clique.messages import block_widths

        widths = block_widths(np.zeros((3, 0), dtype=np.int64), 16)
        assert np.array_equal(widths, np.zeros(3, dtype=np.int64))


INT64_MIN = int(np.iinfo(np.int64).min)
INT64_MAX = int(np.iinfo(np.int64).max)


class TestInt64Extremes:
    """``|INT64_MIN| = 2**63`` is billed as such, although ``np.abs``
    wraps it to itself (a max-abs taken through it bills one word)."""

    def test_block_widths_bill_int64_min_as_two_to_the_63(self):
        widths = block_widths(np.array([[INT64_MIN, 5]]), 16)
        assert widths.tolist() == [2 * words_for_value(2**63, 16)] == [10]
        assert block_widths(np.array([[INT64_MIN + 1, 5]]), 16).tolist() == [8]

    def test_words_for_array_accepts_int64_min(self):
        assert words_for_array(np.array([INT64_MIN]), 16) == 5
        assert words_for_array(np.array([INT64_MIN, INT64_MAX]), 18) == 8

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.lists(
                st.one_of(
                    st.sampled_from([INT64_MIN, INT64_MIN + 1, INT64_MAX, 0, -1]),
                    st.integers(INT64_MIN, INT64_MAX),
                ),
                min_size=3,
                max_size=3,
            ),
            min_size=1,
            max_size=6,
        ),
        st.sampled_from([16, 18, 24, 64]),
    )
    def test_block_widths_agree_with_words_for_array(self, rows, word_bits):
        pieces = np.array(rows, dtype=np.int64)
        want = [words_for_array(piece, word_bits) for piece in pieces]
        assert block_widths(pieces, word_bits).tolist() == want

    def test_session_bill_is_monotone_in_the_extreme_entry(self):
        """A max-min product bills an ``INT64_MIN`` entry at least what it
        bills ``INT64_MIN + 1``, one bit narrower."""
        from repro.algebra.semirings import MAX_MIN
        from repro.engine import open_session

        bills = []
        for extreme in (INT64_MIN + 1, INT64_MIN):
            x = np.arange(64, dtype=np.int64).reshape(8, 8)
            x[3, 5] = extreme
            session = open_session(8, "semiring", MAX_MIN)
            session.multiply(x, x)
            meter = session.clique.meter
            bills.append((meter.rounds, meter.words))
        assert bills[0][0] <= bills[1][0] and bills[0][1] < bills[1][1]
