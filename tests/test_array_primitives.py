"""Equivalence tests: array primitives vs the per-payload tuple references.

The array collectives must charge *identical* costs (rounds, words,
payloads, load profiles -- the full
:class:`~repro.clique.accounting.PhaseCost`) to the tuple primitives of
`tuple_reference.TupleClique` for the same logical exchange, and deliver
the same pieces in the same deterministic order.  Also covers the
vectorised width helpers against their scalar counterparts.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from tuple_reference import TupleClique

from repro.clique.messages import (
    bit_lengths,
    block_widths,
    words_for_array,
    words_for_value,
    words_for_values,
)
from repro.clique.model import CongestedClique, ScheduleMode
from repro.errors import CliqueModelError, LoadBoundExceededError


def _phases(clique: CongestedClique):
    return [
        (
            p.phase,
            p.primitive,
            p.rounds,
            p.words,
            p.payloads,
            p.max_send_words,
            p.max_recv_words,
        )
        for p in clique.meter.phases
    ]


def _random_batch(rng, n: int, piece_len: int):
    """A random exchange in both representations (tuple outboxes + arrays)."""
    dests, blocks, outboxes = [], [], []
    for v in range(n):
        p_v = int(rng.integers(0, 7))
        d = rng.integers(0, n, p_v).astype(np.int64)
        b = rng.integers(-100, 100, (p_v, piece_len)).astype(np.int64)
        dests.append(d)
        blocks.append(b)
        outboxes.append(
            [
                (int(d[i]), b[i], words_for_array(b[i], 16))
                for i in range(p_v)
            ]
        )
    return dests, blocks, outboxes


class TestRouteArrayEquivalence:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_fast_mode_costs_and_delivery_match(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 12))
        dests, blocks, outboxes = _random_batch(rng, n, piece_len=3)
        tuple_clique = CongestedClique(n, word_bits=16)
        array_clique = CongestedClique(n, word_bits=16)
        tuple_in = TupleClique(tuple_clique).route(outboxes, phase="x")
        array_in = array_clique.route_array(dests, blocks, phase="x")
        assert _phases(tuple_clique) == _phases(array_clique)
        assert tuple_clique.rounds == array_clique.rounds
        for u in range(n):
            tuple_srcs = [src for src, _payload in tuple_in[u]]
            assert tuple_srcs == array_in[u].sources.tolist()
            tuple_pieces = [payload for _src, payload in tuple_in[u]]
            assert len(tuple_pieces) == array_in[u].blocks.shape[0]
            for i, piece in enumerate(tuple_pieces):
                assert np.array_equal(piece, array_in[u].blocks[i])

    @settings(max_examples=8, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_exact_mode_rounds_match(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        dests, blocks, outboxes = _random_batch(rng, n, piece_len=2)
        tuple_clique = CongestedClique(n, word_bits=16, mode=ScheduleMode.EXACT)
        array_clique = CongestedClique(n, word_bits=16, mode=ScheduleMode.EXACT)
        TupleClique(tuple_clique).route(outboxes, phase="x")
        array_clique.route_array(dests, blocks, phase="x")
        assert _phases(tuple_clique) == _phases(array_clique)

    def test_tags_ride_along(self):
        n = 3
        clique = CongestedClique(n)
        dests = [np.array([1, 2]), np.array([2]), np.array([], dtype=np.int64)]
        blocks = [
            np.array([[1, 2], [3, 4]]),
            np.array([[5, 6]]),
            np.zeros((0, 2), dtype=np.int64),
        ]
        tags = [np.array([7, 8]), np.array([9]), np.array([], dtype=np.int64)]
        inboxes = clique.route_array(dests, blocks, tags=tags, phase="t")
        assert inboxes[2].sources.tolist() == [0, 1]
        assert inboxes[2].tags.tolist() == [8, 9]
        assert inboxes[1].tags.tolist() == [7]
        assert inboxes[0].tags.tolist() == []

    def test_load_bound_enforced(self):
        n = 4
        clique = CongestedClique(n)
        dests = [np.full(10, 1, dtype=np.int64)] + [
            np.array([], dtype=np.int64) for _ in range(n - 1)
        ]
        blocks = [np.ones((10, 5), dtype=np.int64)] + [
            np.zeros((0, 5), dtype=np.int64) for _ in range(n - 1)
        ]
        with pytest.raises(LoadBoundExceededError):
            clique.route_array(dests, blocks, expect_max_load=3)

    def test_malformed_batch_rejected(self):
        clique = CongestedClique(3)
        good_blocks = [np.zeros((1, 2), dtype=np.int64)] * 3
        with pytest.raises(CliqueModelError):
            clique.route_array([np.array([5])] * 3, good_blocks)  # dst range
        with pytest.raises(CliqueModelError):
            clique.route_array([np.array([1, 2])] * 3, good_blocks)  # count

    def test_wrong_length_tags_rejected(self):
        # Regression: a wrong-length tag vector used to be silently
        # concatenated, shifting tags onto the wrong senders' pieces.
        clique = CongestedClique(2)
        dests = [np.array([0, 1]), np.array([0, 1])]
        blocks = [np.ones((2, 2), dtype=np.int64)] * 2
        with pytest.raises(CliqueModelError):
            clique.route_array(
                dests, blocks, tags=[np.array([7, 8, 9]), np.array([5])]
            )


class TestBroadcastRowsEquivalence:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_costs_match_tuple_broadcast(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 12))
        rows = rng.integers(-1000, 1000, (n, 5)).astype(np.int64)
        widths = [words_for_array(rows[v], 16) for v in range(n)]
        tuple_clique = CongestedClique(n, word_bits=16)
        array_clique = CongestedClique(n, word_bits=16)
        received = tuple_clique.broadcast(list(rows), words=widths, phase="b")
        replica = array_clique.broadcast_rows(rows, phase="b")
        assert _phases(tuple_clique) == _phases(array_clique)
        assert np.array_equal(replica, np.stack(received[0]))

    def test_explicit_widths_respected(self):
        n = 4
        rows = np.ones((n, 3), dtype=np.int64)
        clique = CongestedClique(n)
        clique.broadcast_rows(rows, widths=[9, 1, 1, 1], phase="b")
        assert clique.rounds == 9


class TestTransposeArrayEquivalence:
    @pytest.mark.parametrize("words_per_entry", [1, 3])
    def test_costs_and_values_match(self, words_per_entry):
        rng = np.random.default_rng(0)
        n = 6
        matrix = rng.integers(-50, 50, (n, n)).astype(np.int64)
        tuple_clique = CongestedClique(n)
        array_clique = CongestedClique(n)
        columns = TupleClique(tuple_clique).transpose(
            [list(row) for row in matrix], words_per_entry=words_per_entry
        )
        transposed = array_clique.transpose_array(
            matrix, words_per_entry=words_per_entry
        )
        assert _phases(tuple_clique) == _phases(array_clique)
        assert np.array_equal(transposed, np.array(columns))
        assert np.array_equal(transposed, matrix.T)


class TestVectorisedWidths:
    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.integers(min_value=0, max_value=2**62), min_size=1, max_size=20
        ),
        st.sampled_from([8, 16, 24, 64]),
    )
    def test_words_for_values_matches_scalar(self, values, word_bits):
        vec = words_for_values(np.array(values, dtype=np.int64), word_bits)
        assert vec.tolist() == [words_for_value(v, word_bits) for v in values]

    def test_bit_lengths_matches_python(self):
        probes = [0, 1, 2, 3, 255, 256, 2**52, 2**62 - 1, 2**62, 2**63 - 1]
        out = bit_lengths(np.array(probes, dtype=np.uint64).astype(np.int64))
        assert out.tolist() == [int(v).bit_length() for v in probes]

    def test_block_widths_matches_words_for_array(self):
        rng = np.random.default_rng(1)
        blocks = rng.integers(-10**6, 10**6, (7, 4)).astype(np.int64)
        widths = block_widths(blocks, 16)
        assert widths.tolist() == [words_for_array(b, 16) for b in blocks]


class TestNonIntegerInputRefused:
    """Every collective refuses input that has no integer word encoding.

    Words are integers in this model; an unchecked ``int64`` cast would
    floor a fraction, wrap a NaN to ``-2**63`` or overflow on a huge Python
    int.  Each refusal names the node and the dtype.  (Fractional, NaN, inf
    and object pieces through ``route_array``/``send_array`` are covered by
    ``test_messages.py::TestPayloadHygiene``.)
    """

    @staticmethod
    def _one_piece(piece, *, dest=1):
        no_dests, no_blocks = np.zeros(0, np.int64), np.zeros((0, 2), np.int64)
        dests = [np.array([dest]), no_dests, no_dests]
        return dests, [np.asarray(piece), no_blocks, no_blocks]

    def test_huge_object_entry_refused(self):
        dests, blocks = self._one_piece(np.array([[2**70, 1]], dtype=object))
        with pytest.raises(CliqueModelError, match="node 0: pieces of dtype object"):
            CongestedClique(3).route_array(dests, blocks)

    def test_float_destination_refused(self):
        dests, blocks = self._one_piece([[1, 2]], dest=1.7)
        with pytest.raises(
            CliqueModelError, match="node 0: destinations of dtype float64"
        ):
            CongestedClique(3).route_array(dests, blocks)

    def test_float_widths_and_tags_refused(self):
        clique = CongestedClique(3)
        dests, blocks = self._one_piece([[1, 2]])
        empty = np.zeros(0, np.int64)
        with pytest.raises(CliqueModelError, match="node 0: widths of dtype"):
            clique.send_array(dests, blocks, widths=[np.array([2.5]), empty, empty])
        with pytest.raises(CliqueModelError, match="node 0: tags of dtype"):
            clique.route_array(dests, blocks, tags=[np.array([0.5]), empty, empty])
        assert clique.rounds == 0  # refused before anything was charged

    def test_transpose_of_fractions_refused(self):
        with pytest.raises(CliqueModelError, match="transpose entries of dtype"):
            CongestedClique(3).transpose_array(np.full((3, 3), 0.9))

    def test_broadcast_rows_fractions_refused(self):
        clique = CongestedClique(3)
        with pytest.raises(CliqueModelError, match="node 0: broadcast rows of dtype"):
            clique.broadcast_rows(np.array([[0.5], [1.5], [2.7]]))
        with pytest.raises(CliqueModelError, match="broadcast widths of dtype"):
            clique.broadcast_rows(np.ones((3, 1), np.int64), widths=[1, 1.5, 1])

    def test_allgather_float_records_refused(self):
        rows = [np.zeros((0, 1), np.int64), np.array([[0.25]]), np.zeros((0, 1))]
        with pytest.raises(CliqueModelError, match="node 1: records of dtype float64"):
            CongestedClique(3).allgather_rows(rows)

    def test_empty_arrays_of_any_dtype_accepted(self):
        # Empty per-node arrays carry no words, so their dtype is moot (an
        # empty Python list becomes a float64 array).
        clique = CongestedClique(3)
        dests = [np.array([1]), np.array([]), np.array([])]
        blocks = [np.array([[4, 5]]), np.zeros((0, 2)), np.zeros((0, 2))]
        inboxes = clique.route_array(dests, blocks)
        assert inboxes[1].blocks.tolist() == [[4, 5]]
        assert clique.allgather_rows([np.zeros((0, 1))] * 3).shape == (0, 1)

    @pytest.mark.parametrize("primitive", ["route_array", "send_array"])
    def test_coded_collectives_refuse_float_pieces(self, primitive):
        from repro.faults import CodedClique

        clique = CodedClique(3, tolerance=1)
        dests, blocks = self._one_piece([[1.5, 2.0]])
        with pytest.raises(CliqueModelError, match="node 0: pieces of dtype float64"):
            getattr(clique, primitive)(dests, blocks)
        assert clique.meter.rounds == clique.abstract_meter.rounds == 0
