"""E1 -- Table 1 "matrix multiplication (semiring)": O(n^{1/3}) rounds.

Sweeps perfect-cube clique sizes, records measured rounds (which must equal
the closed-form predictor exactly) and compares against the naive O(n)
broadcast baseline.  Also certifies the closed-form bill against an explicit
relay schedule.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.clique import CongestedClique
from repro.matmul.exponent import fit_exponent, predicted_semiring3d_rounds
from repro.matmul.naive import broadcast_matmul
from repro.matmul.semiring3d import semiring_matmul
from tests.schedule_reference import certify

from .conftest import run_once

SIZES = [27, 64, 125, 216]


def _inputs(n: int):
    rng = np.random.default_rng(n)
    return (
        rng.integers(-9, 10, (n, n), dtype=np.int64),
        rng.integers(-9, 10, (n, n), dtype=np.int64),
    )


@pytest.mark.parametrize("n", SIZES)
def test_semiring3d_rounds(benchmark, n):
    s, t = _inputs(n)

    def run():
        clique = CongestedClique(n)
        semiring_matmul(clique, s, t)
        return clique.rounds

    rounds = run_once(benchmark, run)
    benchmark.extra_info["clique_rounds"] = rounds
    benchmark.extra_info["predicted_rounds"] = predicted_semiring3d_rounds(n)
    assert rounds == predicted_semiring3d_rounds(n)


@pytest.mark.parametrize("n", [27, 64, 125])
def test_naive_baseline_rounds(benchmark, n):
    s, t = _inputs(n)

    def run():
        clique = CongestedClique(n)
        broadcast_matmul(clique, s, t)
        return clique.rounds

    rounds = run_once(benchmark, run)
    benchmark.extra_info["clique_rounds"] = rounds
    # The 3D algorithm must beat the naive baseline beyond tiny sizes.
    assert predicted_semiring3d_rounds(n) < rounds or n < 27


def test_semiring3d_exponent(benchmark):
    def run():
        rounds = []
        for n in SIZES:
            s, t = _inputs(n)
            clique = CongestedClique(n)
            semiring_matmul(clique, s, t)
            rounds.append(clique.rounds)
        return fit_exponent(SIZES, rounds)

    exponent = run_once(benchmark, run)
    benchmark.extra_info["fitted_exponent"] = exponent
    benchmark.extra_info["paper_exponent"] = 1 / 3
    assert 0.2 < exponent < 0.45


def test_exact_schedule_ablation(benchmark):
    """DESIGN.md ablation 1: the explicit relay schedule vs the closed form."""
    n = 27
    s, t = _inputs(n)

    def run():
        clique = CongestedClique(n)
        certifier = certify(clique)
        semiring_matmul(clique, s, t)
        return clique.rounds, certifier.total, len(clique.meter.phases)

    rounds, certified, charges = run_once(benchmark, run)
    benchmark.extra_info["clique_rounds"] = rounds
    # Every charge matched its explicit schedule, so the bill is the
    # closed form exactly.
    assert certified == charges
    assert rounds == predicted_semiring3d_rounds(n)
