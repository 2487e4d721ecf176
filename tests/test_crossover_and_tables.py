"""Tests for crossover extrapolation and witness-backed routing tables."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import pytest

from repro.constants import INF, RHO_IMPLEMENTED, RHO_PAPER
from repro.distances.bounded import apsp_up_to
from repro.graphs import (
    apsp_reference,
    random_weighted_digraph,
    validate_routing_table,
)
from repro.runtime import make_clique, pad_matrix


@dataclass(frozen=True)
class CrossoverEstimate:
    """Extrapolated break-even size between two power-law round curves.

    Given measured anchors ``(n0, rounds0)`` for two algorithms and their
    growth exponents, ``rounds_i(n) = rounds_i(n0) * (n / n0)^{e_i}``
    crosses at ``n* = n0 * (r_fast / r_slow)^{1 / (e_slow - e_fast)}``
    when the asymptotically faster algorithm is behind at the anchor.
    """

    anchor_n: int
    fast_rounds_at_anchor: float
    slow_rounds_at_anchor: float
    fast_exponent: float
    slow_exponent: float

    @property
    def crossover_n(self) -> float:
        """The size where the asymptotically faster curve takes the lead.

        ``<= anchor_n`` when it already leads at the anchor; ``inf`` when
        the exponents do not order (no crossover).
        """
        gap = self.slow_exponent - self.fast_exponent
        if gap <= 0:
            return math.inf
        if self.fast_rounds_at_anchor <= self.slow_rounds_at_anchor:
            return float(self.anchor_n)
        ratio = self.fast_rounds_at_anchor / self.slow_rounds_at_anchor
        return self.anchor_n * ratio ** (1.0 / gap)


def crossover(
    anchor_n: int,
    fast_rounds: float,
    slow_rounds: float,
    fast_exponent: float,
    slow_exponent: float,
) -> CrossoverEstimate:
    """Build a :class:`CrossoverEstimate` from positive anchors."""
    if anchor_n < 1 or fast_rounds <= 0 or slow_rounds <= 0:
        raise ValueError("anchor size and round counts must be positive")
    return CrossoverEstimate(
        anchor_n=anchor_n,
        fast_rounds_at_anchor=float(fast_rounds),
        slow_rounds_at_anchor=float(slow_rounds),
        fast_exponent=fast_exponent,
        slow_exponent=slow_exponent,
    )


def triangle_crossover_vs_dolev(
    anchor_n: int, our_rounds: float, dolev_rounds: float, *, rho: float
) -> CrossoverEstimate:
    """The Table 1 triangle-counting break-even under exponent ``rho``
    (``RHO_IMPLEMENTED`` for Strassen, ``RHO_PAPER`` for Le Gall) against
    Dolev et al.'s ``n^{1/3}``."""
    return crossover(anchor_n, our_rounds, dolev_rounds, rho, 1.0 / 3.0)


class TestCrossover:
    def test_already_ahead_at_anchor(self):
        est = crossover(100, fast_rounds=10, slow_rounds=20,
                        fast_exponent=0.3, slow_exponent=0.5)
        assert est.crossover_n == 100

    def test_behind_at_anchor_extrapolates(self):
        # fast is 2x behind with a 0.1 exponent edge: crossover at 2^10 x.
        est = crossover(100, fast_rounds=20, slow_rounds=10,
                        fast_exponent=0.2, slow_exponent=0.3)
        assert est.crossover_n == pytest.approx(100 * 2**10)

    def test_no_exponent_gap_means_no_crossover(self):
        est = crossover(100, 20, 10, 0.3, 0.3)
        assert math.isinf(est.crossover_n)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            crossover(0, 1, 1, 0.1, 0.2)
        with pytest.raises(ValueError):
            crossover(10, 0, 1, 0.1, 0.2)

    def test_triangle_crossover_reproduces_experiments_claims(self):
        """The EXPERIMENTS.md numbers: ~3e5 (Strassen) and ~2e3 (Le Gall)."""
        # Anchors from the measured Table 1 sweep at n = 196.
        strassen = triangle_crossover_vs_dolev(
            196, our_rounds=109, dolev_rounds=69, rho=RHO_IMPLEMENTED
        )
        le_gall = triangle_crossover_vs_dolev(
            196, our_rounds=109, dolev_rounds=69, rho=RHO_PAPER
        )
        assert 5e4 < strassen.crossover_n < 5e6
        assert 5e2 < le_gall.crossover_n < 5e4
        assert le_gall.crossover_n < strassen.crossover_n


class TestWitnessBackedRoutingTables:
    """§3.3 + §3.4 composition: routing tables on the *ring* engine."""

    @pytest.mark.parametrize("seed", [0, 1])
    def test_lemma19_tables_walk_correctly(self, seed):
        g = random_weighted_digraph(16, 0.5, 3, seed=seed)
        clique = make_clique(g.n, "bilinear")
        w = pad_matrix(g.weight_matrix(), clique.n, fill=INF)
        cap = 12
        dist, next_hop = apsp_up_to(
            clique,
            w,
            cap,
            with_routing_tables=True,
            witness_rng=np.random.default_rng(seed),
        )
        ref = apsp_reference(g)
        want = np.where(ref <= cap, ref, INF)
        assert np.array_equal(dist[: g.n, : g.n], want)
        assert validate_routing_table(
            g, dist[: g.n, : g.n], next_hop[: g.n, : g.n]
        )

    def test_table_entries_reset_for_capped_pairs(self):
        g = random_weighted_digraph(16, 0.3, 4, seed=3)
        clique = make_clique(g.n, "bilinear")
        w = pad_matrix(g.weight_matrix(), clique.n, fill=INF)
        dist, next_hop = apsp_up_to(clique, w, 2, with_routing_tables=True)
        unreachable = dist >= INF
        assert (next_hop[unreachable] == -1).all()

    def test_witness_tables_cost_more_than_plain(self):
        g = random_weighted_digraph(16, 0.5, 3, seed=1)
        w_matrix = g.weight_matrix()
        plain = make_clique(g.n, "bilinear")
        apsp_up_to(plain, pad_matrix(w_matrix, plain.n, fill=INF), 8)
        with_tables = make_clique(g.n, "bilinear")
        apsp_up_to(
            with_tables,
            pad_matrix(w_matrix, with_tables.n, fill=INF),
            8,
            with_routing_tables=True,
        )
        assert with_tables.rounds > plain.rounds
