#!/usr/bin/env python
"""A miniature Table 1: round scaling of the core engines.

Sweeps clique sizes, measures rounds for the semiring engine, the bilinear
engine, the naive baseline and Theorem 4's flat detector, then prints the
fitted growth exponents next to the paper's bounds.

Run: ``python examples/scaling_study.py [--small]``.
"""

from __future__ import annotations

import sys

import numpy as np

from repro import CongestedClique, RHO_IMPLEMENTED
from repro.graphs import bipartite_random_graph
from repro.matmul.bilinear_clique import bilinear_matmul, default_algorithm
from repro.matmul.exponent import fit_exponent
from repro.matmul.naive import broadcast_matmul
from repro.matmul.semiring3d import semiring_matmul
from repro.subgraphs import detect_four_cycles


def _sweep(sizes, run):
    rounds = []
    for n in sizes:
        rounds.append(run(n))
    return rounds


def main() -> int:
    small = "--small" in sys.argv
    cube_sizes = [27, 64] if small else [27, 64, 125, 216]
    square_sizes = [16, 49] if small else [16, 49, 100, 196]
    flat_sizes = [16, 32, 64] if small else [16, 32, 64, 128, 256]
    rng = np.random.default_rng(0)

    def semiring_run(n):
        s = rng.integers(0, 10, (n, n), dtype=np.int64)
        clique = CongestedClique(n)
        semiring_matmul(clique, s, s)
        return clique.rounds

    def bilinear_run(n):
        s = rng.integers(0, 10, (n, n), dtype=np.int64)
        clique = CongestedClique(n)
        bilinear_matmul(clique, s, s, default_algorithm(n))
        return clique.rounds

    def naive_run(n):
        s = rng.integers(0, 10, (n, n), dtype=np.int64)
        clique = CongestedClique(n)
        broadcast_matmul(clique, s, s)
        return clique.rounds

    def c4_run(n):
        g = bipartite_random_graph(n, 4.0 / n, seed=n)
        return detect_four_cycles(g).rounds

    rows = [
        ("semiring 3D matmul", cube_sizes, _sweep(cube_sizes, semiring_run), "1/3"),
        (
            "bilinear (Strassen) matmul",
            square_sizes,
            _sweep(square_sizes, bilinear_run),
            f"{RHO_IMPLEMENTED:.3f} (0.158 w/ Le Gall)",
        ),
        ("naive broadcast matmul", cube_sizes, _sweep(cube_sizes, naive_run), "1"),
        ("4-cycle detection (Thm 4)", flat_sizes, _sweep(flat_sizes, c4_run), "0"),
    ]

    print(f"{'algorithm':28s} {'sizes / rounds':42s} {'fit':>7s}  paper")
    print("-" * 100)
    for name, sizes, rounds, bound in rows:
        pairs = "  ".join(f"{n}:{r}" for n, r in zip(sizes, rounds))
        print(f"{name:28s} {pairs:42s} {fit_exponent(sizes, rounds):+7.3f}  n^{bound}")
    print("\n(fits at small n carry quantisation noise; the test suite")
    print(" also checks the exact predictors -- see EXPERIMENTS.md)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
