"""Tests for the CongestedClique simulator primitives."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clique import CongestedClique, ScheduleMode
from repro.errors import CliqueModelError


class TestConstruction:
    def test_needs_two_nodes(self):
        with pytest.raises(CliqueModelError):
            CongestedClique(1)

    def test_default_word_bits(self):
        assert CongestedClique(64).word_bits == 16

    def test_custom_word_bits(self):
        assert CongestedClique(8, word_bits=32).word_bits == 32

    def test_bad_word_bits(self):
        with pytest.raises(CliqueModelError):
            CongestedClique(8, word_bits=0)


class TestBroadcast:
    def test_one_round_for_unit_payloads(self):
        clique = CongestedClique(5)
        received = clique.broadcast(list(range(5)))
        assert clique.rounds == 1
        assert received[2] == [0, 1, 2, 3, 4]

    def test_rounds_follow_max_width(self):
        clique = CongestedClique(4)
        clique.broadcast(["a", "b", "c", "d"], words=[1, 7, 2, 1])
        assert clique.rounds == 7

    def test_wrong_payload_count(self):
        clique = CongestedClique(4)
        with pytest.raises(CliqueModelError):
            clique.broadcast([1, 2])

    def test_wrong_width_count(self):
        clique = CongestedClique(4)
        with pytest.raises(CliqueModelError):
            clique.broadcast([1, 2, 3, 4], words=[1, 2])

    def test_negative_width(self):
        clique = CongestedClique(3)
        with pytest.raises(CliqueModelError):
            clique.broadcast([1, 2, 3], words=[-1, 1, 1])

    def test_every_node_sees_same_order(self):
        clique = CongestedClique(6)
        received = clique.broadcast([f"p{v}" for v in range(6)])
        for u in range(6):
            assert received[u] == [f"p{v}" for v in range(6)]


def _batch(n: int, messages: dict[int, list[tuple[int, int]]]):
    """Per-node (dests, one-entry pieces, widths) for ``{src: [(dst, words)]}``."""
    dests, blocks, widths = [], [], []
    for v in range(n):
        box = messages.get(v, [])
        dests.append(np.array([d for d, _w in box], dtype=np.int64))
        blocks.append(np.full((len(box), 1), v, dtype=np.int64))
        widths.append(np.array([w for _d, w in box], dtype=np.int64))
    return dests, blocks, widths


class TestSend:
    def test_transposes_in_one_round(self):
        clique = CongestedClique(4)
        cols = clique.transpose_array(
            np.array([[10 * v + u for u in range(4)] for v in range(4)])
        )
        assert clique.rounds == 1
        assert cols[1][3] == 31

    def test_rounds_equal_max_pair_traffic(self):
        clique = CongestedClique(4)
        dests, blocks, widths = _batch(4, {0: [(1, 3), (1, 2)]})
        clique.send_array(dests, blocks, widths=widths)
        assert clique.rounds == 5  # 5 words over the (0, 1) link

    def test_self_messages_free(self):
        clique = CongestedClique(3)
        dests, blocks, widths = _batch(3, {0: [(0, 100)]})
        inboxes = clique.send_array(dests, blocks, widths=widths)
        assert clique.rounds == 0
        assert inboxes[0].sources.tolist() == [0]
        assert inboxes[0].blocks.tolist() == [[0]]

    def test_bad_destination(self):
        clique = CongestedClique(3)
        dests, blocks, widths = _batch(3, {0: [(7, 1)]})
        with pytest.raises(CliqueModelError):
            clique.send_array(dests, blocks, widths=widths)

    def test_inboxes_sorted_by_source(self):
        clique = CongestedClique(4)
        dests, blocks, widths = _batch(4, {2: [(3, 1)], 0: [(3, 1)], 1: [(3, 1)]})
        inboxes = clique.send_array(dests, blocks, widths=widths)
        assert inboxes[3].sources.tolist() == [0, 1, 2]


class TestRoute:
    def test_balanced_load_costs_two_rounds(self):
        n = 8
        clique = CongestedClique(n)
        dests, blocks, widths = _batch(n, {v: [((v + 1) % n, 1)] for v in range(n)})
        clique.route_array(dests, blocks, widths=widths)
        assert clique.rounds == 2

    def test_rounds_scale_with_load(self):
        n = 8
        clique = CongestedClique(n)
        # Node 0 receives 4n words -> 2 * ceil(4n/n) = 8 rounds.
        width = 32 // (n - 1) + 1
        dests, blocks, widths = _batch(n, {v: [(0, width)] for v in range(1, n)})
        clique.route_array(dests, blocks, widths=widths)
        assert clique.rounds == 2 * ((max(width, 0) * (n - 1) + n - 1) // n)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_exact_mode_delivers_identically(self, seed):
        rng = np.random.default_rng(seed)
        n = 7
        dests, blocks = [], []
        for v in range(n):
            count = int(rng.integers(0, 12))
            dests.append(rng.integers(0, n, count).astype(np.int64))
            pieces = np.empty((count, 2), dtype=np.int64)
            pieces[:, 0] = v
            pieces[:, 1] = rng.integers(100, size=count)
            blocks.append(pieces)
        widths = [np.ones(d.shape[0], dtype=np.int64) for d in dests]
        fast = CongestedClique(n, mode=ScheduleMode.FAST)
        exact = CongestedClique(n, mode=ScheduleMode.EXACT)
        got_fast = fast.route_array(dests, blocks, widths=widths)
        got_exact = exact.route_array(dests, blocks, widths=widths)
        for u in range(n):
            assert np.array_equal(got_fast[u].sources, got_exact[u].sources)
            assert np.array_equal(got_fast[u].blocks, got_exact[u].blocks)
        assert exact.rounds <= 2 * fast.rounds + 2

    def test_empty_route_is_free(self):
        clique = CongestedClique(4)
        clique.route_array(*_batch(4, {})[:2])
        assert clique.rounds == 0


class TestAllgather:
    def test_replicates_all_records(self):
        clique = CongestedClique(5)
        records = [
            np.array([(v, i) for i in range(v + 1)], dtype=np.int64)
            for v in range(5)
        ]
        combined = clique.allgather_rows(records)
        assert sorted(map(tuple, combined.tolist())) == sorted(
            (v, i) for v in range(5) for i in range(v + 1)
        )

    def test_rounds_scale_with_volume(self):
        n = 8
        small = CongestedClique(n)
        small.allgather_rows([np.ones((1, 1), dtype=np.int64)] * n)
        big = CongestedClique(n)
        big.allgather_rows([np.ones((10, 1), dtype=np.int64)] * n)
        assert big.rounds > small.rounds

    def test_wrong_shape(self):
        clique = CongestedClique(4)
        with pytest.raises(CliqueModelError):
            clique.allgather_rows([np.zeros((0, 1), dtype=np.int64)] * 2)


class TestTranspose:
    def test_shape_validation(self):
        clique = CongestedClique(3)
        with pytest.raises(CliqueModelError):
            clique.transpose_array(np.array([[1, 2], [3, 4]]))

    def test_wide_entries_cost_more(self):
        clique = CongestedClique(3)
        clique.transpose_array(np.ones((3, 3), dtype=np.int64), words_per_entry=4)
        assert clique.rounds == 4
