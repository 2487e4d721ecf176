"""Tests for the broadcast congested clique (paper §4, Corollary 24)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.clique import CongestedClique
from repro.clique.broadcast_clique import (
    BroadcastCongestedClique,
    broadcast_clique_matmul,
)
from repro.errors import CliqueModelError


class TestModel:
    def test_needs_two_nodes(self):
        with pytest.raises(CliqueModelError):
            BroadcastCongestedClique(1)

    def test_broadcast_rounds_follow_max_width(self):
        clique = BroadcastCongestedClique(4)
        clique.broadcast_rows(np.arange(4), widths=[1, 3, 1, 1])
        assert clique.rounds == 3

    def test_all_nodes_receive_everything(self):
        clique = BroadcastCongestedClique(5)
        received = clique.broadcast_rows(np.arange(5))
        assert received.tolist() == [0, 1, 2, 3, 4]

    def test_wrong_row_count(self):
        clique = BroadcastCongestedClique(3)
        with pytest.raises(CliqueModelError):
            clique.broadcast_rows(np.array([1, 2]))

    def test_bills_like_the_full_model(self):
        rows = np.arange(12).reshape(4, 3)
        clique = BroadcastCongestedClique(4)
        full = CongestedClique(4)
        clique.broadcast_rows(rows, widths=[2, 1, 3, 1], phase="b")
        full.broadcast_rows(rows, widths=[2, 1, 3, 1], phase="b")
        assert clique.meter.phases == full.meter.phases

    @pytest.mark.parametrize(
        "name",
        [
            "broadcast",
            "send_array",
            "route_array",
            "route_array_take",
            "transpose_array",
            "scatter_blocks",
            "gather_blocks",
            "allgather_rows",
        ],
    )
    def test_no_unicast_collectives(self, name):
        assert not hasattr(BroadcastCongestedClique(4), name)


class TestBroadcastMatmul:
    def test_correct(self, rng):
        n = 12
        s = rng.integers(-9, 10, (n, n), dtype=np.int64)
        t = rng.integers(-9, 10, (n, n), dtype=np.int64)
        clique = BroadcastCongestedClique(n)
        assert np.array_equal(broadcast_clique_matmul(clique, s, t), s @ t)

    def test_rounds_are_linear_in_n(self, rng):
        rounds = []
        for n in (8, 16, 32):
            s = rng.integers(0, 2, (n, n), dtype=np.int64)
            clique = BroadcastCongestedClique(n)
            broadcast_clique_matmul(clique, s, s)
            rounds.append(clique.rounds)
        assert rounds == [16, 32, 64]  # 2 rows (S and T) of n words each

    @pytest.mark.parametrize("n", [27, 64, 125])
    def test_corollary24_floor_respected(self, n):
        """The separation: ``n`` words of private input per node cross a
        one-word-per-round shared channel, so broadcast matmul pays
        ``Omega(n)`` rounds while the unicast engine pays ``O(n^{1/3})`` on
        the same input."""
        from repro.matmul.semiring3d import semiring_matmul

        rng = np.random.default_rng(n)
        s = rng.integers(0, 2, (n, n), dtype=np.int64)
        t = rng.integers(0, 2, (n, n), dtype=np.int64)
        bc = BroadcastCongestedClique(n)
        broadcast_clique_matmul(bc, s, t)
        assert bc.rounds >= n
        unicast = CongestedClique(n)
        semiring_matmul(unicast, s, t)
        assert unicast.rounds < bc.rounds

    def test_shape_validation(self, rng):
        clique = BroadcastCongestedClique(8)
        bad = rng.integers(0, 2, (4, 4), dtype=np.int64)
        with pytest.raises(ValueError):
            broadcast_clique_matmul(clique, bad, bad)
