"""Tests for the analysis layer: Table 1 harness plumbing, and the §4
lower bounds (Corollaries 22-23) as measured floors.

The §4 results bound the per-node communication of clique
implementations.  Corollary 22: any implementation of the trivial
``Theta(n^3)`` matmul (and any min-plus-only APSP) has a node sending or
receiving ``Omega(n^2 / P^{2/3})`` entries with ``P = n`` processors, i.e.
``Omega(n^{4/3})`` words.  Corollary 23: any Strassen-like
``Omega(n^sigma)`` algorithm has a node communicating
``Omega(n^{2 - 2/sigma})`` values.  Each matmul engine's measured max
per-node traffic must sit on or above its floor (the simulation is not
cheating) and within a small constant of it (the sense in which the paper
calls Theorem 1 "essentially optimal").
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import pytest

from repro.analysis import ProblemReport, format_table1, run_table1
from repro.clique import CongestedClique
from repro.clique.accounting import CostMeter, PhaseCost
from repro.constants import SIGMA_STRASSEN
from repro.matmul.bilinear_clique import bilinear_matmul, default_algorithm
from repro.matmul.semiring3d import semiring_matmul


def semiring_words_floor(n: int) -> int:
    """Corollary 22 floor: ``n^2 / P^{2/3}`` entries per node at ``P = n``."""
    return math.ceil(n**2 / n ** (2.0 / 3.0))


def strassen_like_words_floor(n: int, sigma: float) -> int:
    """Corollary 23 floor: ``n^{2 - 2/sigma}`` values at some node."""
    return math.ceil(n ** (2.0 - 2.0 / sigma))


def rounds_floor_from_words(words: int, n: int) -> int:
    """Words-per-node to rounds: a node moves at most ``n - 1`` words/round."""
    return math.ceil(words / max(1, n - 1))


@dataclass(frozen=True)
class LowerBoundCheck:
    """Measured-vs-floor comparison for one algorithm run."""

    name: str
    floor_words: int
    measured_max_node_words: int

    @property
    def satisfied(self) -> bool:
        """The measurement must sit on or above the information floor."""
        return self.measured_max_node_words >= self.floor_words

    @property
    def overhead(self) -> float:
        """How far above the floor the implementation sits (1.0 = tight)."""
        if self.floor_words == 0:
            return float("inf")
        return self.measured_max_node_words / self.floor_words


def check_meter_against_floor(
    name: str, meter: CostMeter, floor_words: int
) -> LowerBoundCheck:
    """Compare a run's total max per-node traffic against a §4 floor.

    Sums the per-phase maxima (an upper bound on the true per-node total,
    adequate for a floor check since phases are sequential).
    """
    measured = sum(
        max(p.max_send_words, p.max_recv_words) for p in meter.phases
    )
    return LowerBoundCheck(
        name=name, floor_words=floor_words, measured_max_node_words=measured
    )


def _zero_one_inputs(n: int) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(n)
    return (
        rng.integers(0, 2, (n, n), dtype=np.int64),
        rng.integers(0, 2, (n, n), dtype=np.int64),
    )


class TestLowerBounds:
    def test_semiring_floor_scaling(self):
        # n^2 / n^{2/3} = n^{4/3}; floating-point cube roots may round up.
        assert semiring_words_floor(64) in (256, 257)
        assert semiring_words_floor(1000) > semiring_words_floor(100)

    def test_strassen_floor_below_semiring(self):
        n = 10**6
        assert strassen_like_words_floor(n, math.log2(7)) < semiring_words_floor(n)

    def test_rounds_floor(self):
        assert rounds_floor_from_words(100, 11) == 10

    def test_check_uses_meter_maxima(self):
        meter = CostMeter()
        meter.charge(
            PhaseCost(
                phase="a",
                primitive="route",
                rounds=2,
                words=100,
                payloads=1,
                max_send_words=60,
                max_recv_words=40,
            )
        )
        check = check_meter_against_floor("x", meter, floor_words=50)
        assert check.measured_max_node_words == 60
        assert check.satisfied
        assert check.overhead == pytest.approx(1.2)

    def test_unsatisfied_check(self):
        check = LowerBoundCheck("x", floor_words=100, measured_max_node_words=10)
        assert not check.satisfied

    @pytest.mark.parametrize("n", [27, 64, 125])
    def test_measured_semiring_run_sits_above_floor(self, n):
        s, t = _zero_one_inputs(n)
        clique = CongestedClique(n)
        semiring_matmul(clique, s, t)
        check = check_meter_against_floor(
            "semiring3d", clique.meter, semiring_words_floor(n)
        )
        assert check.satisfied
        # Theorem 1 is an essentially optimal implementation: within a small
        # constant of the Corollary 22 floor.
        assert check.overhead < 16

    @pytest.mark.parametrize("n", [49, 100, 196])
    def test_bilinear_sits_on_corollary23_floor(self, n):
        s, t = _zero_one_inputs(n)
        clique = CongestedClique(n)
        bilinear_matmul(clique, s, t, default_algorithm(n))
        check = check_meter_against_floor(
            "bilinear", clique.meter, strassen_like_words_floor(n, SIGMA_STRASSEN)
        )
        assert check.satisfied
        assert check.overhead < 64  # level quantisation + padding constants


class TestTable1Formatting:
    def _sample_report(self) -> ProblemReport:
        return ProblemReport(
            problem="sample",
            sizes=[16, 64],
            rounds=[4, 8],
            paper_bound="O(n^{1/3})",
            prior_bound="O(n)",
            prior_rounds=[16, 64],
            notes="synthetic",
        )

    def test_fitted_exponents(self):
        rep = self._sample_report()
        assert rep.fitted_exponent == pytest.approx(0.5)
        assert rep.prior_fitted_exponent == pytest.approx(1.0)

    def test_format_contains_all_fields(self):
        text = format_table1([self._sample_report()])
        for token in ("sample", "O(n^{1/3})", "fitted exp", "speedup", "synthetic"):
            assert token in text

    def test_no_prior_rounds(self):
        rep = ProblemReport(
            problem="p",
            sizes=[4, 8],
            rounds=[2, 2],
            paper_bound="O(1)",
            prior_bound="--",
        )
        assert rep.prior_fitted_exponent is None
        assert "prior rounds" not in format_table1([rep])

    def test_run_table1_validates_scale(self):
        with pytest.raises(ValueError):
            run_table1(scale="huge")
