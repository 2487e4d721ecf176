"""Tests for the round bills and the relay schedules behind them.

These certify the routing theorem the whole paper leans on: any demand with
per-node load ``L`` is deliverable in ``2 * ceil(L / n)`` rounds, via an
explicit schedule that never ships two words across one ordered pair in a
round.  The schedule is built in ``tests/schedule_reference.py``; its Koenig
colouring must use exactly ``L`` matchings.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from schedule_reference import (
    RelaySchedule,
    ScheduleError,
    _perfect_matching,
    colour_into_matchings,
    max_degree,
    relay_schedule,
    validate_matchings,
    validate_relay_schedule,
)

from repro.clique.scheduling import broadcast_rounds, direct_rounds, relay_rounds
from tests.conftest import random_demand


class TestDirectRounds:
    def test_empty(self):
        assert direct_rounds(np.zeros(0, dtype=np.int64)) == 0

    def test_max_pair(self):
        assert direct_rounds(np.array([3, 0, 7])) == 7


class TestRelayRounds:
    def test_zero_load(self):
        assert relay_rounds(0, 8) == 0

    def test_formula(self):
        assert relay_rounds(8, 8) == 2
        assert relay_rounds(9, 8) == 4
        assert relay_rounds(17, 8) == 6

    def test_single_node_rejected(self):
        with pytest.raises(ValueError):
            relay_rounds(5, 1)


def _small_demands():
    """Every non-empty demand on n=3 (<= 2 words a pair) and n=4 (<= 1)."""
    for n, most in ((3, 2), (4, 1)):
        pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
        for counts in itertools.product(range(most + 1), repeat=len(pairs)):
            demand = {pair: c for pair, c in zip(pairs, counts) if c}
            if demand:
                yield n, demand


class TestColouring:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=3, max_value=10))
    def test_random_demands_colour_properly(self, seed, n):
        rng = np.random.default_rng(seed)
        demand = random_demand(rng, n)
        matchings = colour_into_matchings(demand, n)
        validate_matchings(matchings, demand)

    def test_matching_count_equals_max_load(self):
        rng = np.random.default_rng(0)
        for trial in range(10):
            n = 8
            demand = random_demand(rng, n)
            if not demand:
                continue
            matchings = colour_into_matchings(demand, n)
            assert len(matchings) == max_degree(demand, n)

    def test_every_small_demand_colours_into_max_load_matchings(self):
        # Koenig by exhaustion: all 728 + 4095 demands, exactly L matchings.
        checked = 0
        for n, demand in _small_demands():
            matchings = colour_into_matchings(demand, n)
            validate_matchings(matchings, demand)
            assert len(matchings) == max_degree(demand, n), demand
            checked += 1
        assert checked == 4823

    def test_single_heavy_pair(self):
        demand = {(0, 1): 40}
        matchings = colour_into_matchings(demand, 4)
        validate_matchings(matchings, demand)
        assert len(matchings) == 40  # a pair's words must use distinct classes

    def test_permutation_demand_is_one_matching(self):
        n = 6
        demand = {(u, (u + 1) % n): 1 for u in range(n)}
        matchings = colour_into_matchings(demand, n)
        validate_matchings(matchings, demand)
        assert len(matchings) == 1

    def test_empty_demand(self):
        assert colour_into_matchings({}, 5) == []

    def test_validation_rejects_bad_matchings(self):
        with pytest.raises(ScheduleError):
            validate_matchings([[(0, 1), (0, 2)]], {(0, 1): 1, (0, 2): 1})

    def test_validation_rejects_incomplete_cover(self):
        with pytest.raises(ScheduleError):
            validate_matchings([[(0, 1)]], {(0, 1): 2})

    def test_peeled_matching_agrees_with_scipy(self):
        # The odd-degree peel against scipy's Hopcroft-Karp: both find a
        # perfect matching on the support of random regular multigraphs.
        sparse = pytest.importorskip("scipy.sparse")
        graph = pytest.importorskip("scipy.sparse.csgraph")
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = int(rng.integers(2, 12))
            degree = int(rng.integers(1, 6))
            counts: dict[tuple[int, int], int] = {}
            for _ in range(degree):
                for u, v in enumerate(rng.permutation(n).tolist()):
                    counts[(u, v)] = counts.get((u, v), 0) + 1
            peeled = _perfect_matching(counts, n)
            assert sorted(u for u, _ in peeled) == list(range(n))
            assert sorted(v for _, v in peeled) == list(range(n))
            assert all(pair in counts for pair in peeled)
            support = np.zeros((n, n), dtype=np.int8)
            for u, v in counts:
                support[u, v] = 1
            mate = graph.maximum_bipartite_matching(
                sparse.csr_matrix(support), perm_type="column"
            )
            assert int((mate >= 0).sum()) == len(peeled)


class TestRelaySchedule:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=3, max_value=9))
    def test_schedule_is_legal_and_matches_the_bill(self, seed, n):
        rng = np.random.default_rng(seed)
        demand = random_demand(rng, n)
        if not demand:
            return
        schedule = relay_schedule(demand, n)
        validate_relay_schedule(schedule)
        assert schedule.rounds == relay_rounds(max_degree(demand, n), n)

    def test_all_to_one_demand(self):
        n = 8
        demand = {(u, 0): 4 for u in range(1, n)}
        schedule = relay_schedule(demand, n)
        validate_relay_schedule(schedule)
        # Receive load 28: 2 * ceil(28 / 8) = 8 rounds.
        assert schedule.rounds == 8

    def test_self_hops_are_elided(self):
        demand = {(0, 1): 1, (1, 0): 1}
        schedule = relay_schedule(demand, 4)
        for hop_list in schedule.hops:
            for u, v in hop_list:
                assert u != v

    def test_validation_rejects_a_reused_pair(self):
        with pytest.raises(ScheduleError):
            validate_relay_schedule(RelaySchedule([[(0, 1), (0, 1)]]))


class TestBroadcastRounds:
    def test_empty(self):
        assert broadcast_rounds([]) == 0

    def test_max_width(self):
        assert broadcast_rounds([1, 5, 2]) == 5

    def test_relay_vs_lower_bound(self):
        # The relay schedule can never beat the bandwidth floor ceil(L/n).
        rng = np.random.default_rng(7)
        for _ in range(5):
            n = 7
            demand = random_demand(rng, n)
            if not demand:
                continue
            schedule = relay_schedule(demand, n)
            assert schedule.rounds >= math.ceil(max_degree(demand, n) / n)


class TestDisjointRelays:
    """PR 6 satellite: relay assignment for replication-coded exchanges."""

    @settings(max_examples=40, deadline=None)
    @given(
        pieces=st.integers(min_value=0, max_value=200),
        n=st.integers(min_value=3, max_value=40),
        salt=st.integers(min_value=0, max_value=1000),
        data=st.data(),
    )
    def test_rows_are_pairwise_distinct_relays(self, pieces, n, salt, data):
        from repro.clique.scheduling import disjoint_relays

        copies = data.draw(st.integers(min_value=1, max_value=n))
        relays = disjoint_relays(pieces, copies, n, salt=salt)
        assert relays.shape == (pieces, copies)
        assert relays.dtype == np.int64
        if pieces:
            assert int(relays.min()) >= 0 and int(relays.max()) < n
            # Each piece's copy set must be c *distinct* relays, else a
            # single corrupt node could own two votes on the same piece.
            sorted_rows = np.sort(relays, axis=1)
            assert np.all(sorted_rows[:, 1:] != sorted_rows[:, :-1])

    def test_deterministic_in_inputs(self):
        from repro.clique.scheduling import disjoint_relays

        assert np.array_equal(
            disjoint_relays(17, 3, 11, salt=5), disjoint_relays(17, 3, 11, salt=5)
        )

    def test_load_is_balanced(self):
        from repro.clique.scheduling import disjoint_relays

        # n pieces, 1 copy: the stride walk must not pile onto few relays.
        n = 16
        relays = disjoint_relays(n, 1, n).reshape(-1)
        counts = np.bincount(relays, minlength=n)
        assert counts.max() <= 2
