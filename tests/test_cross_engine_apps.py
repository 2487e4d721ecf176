"""Cross-engine application coverage.

Every application that takes a ``method`` parameter must produce identical
answers on all engines it supports -- here the combinations not already
exercised elsewhere (colour coding on the 3D engine, Seidel on the naive
engine, counting on the naive engine), plus witness cross-validation
between the semiring engine's native arg-min and the §3.4 machinery.
"""

from __future__ import annotations

import numpy as np
import pytest
from graph_reference import bfs_distances_reference, has_k_cycle_reference

from repro.algebra.semirings import MIN_PLUS
from repro.clique import CongestedClique
from repro.constants import INF
from repro.distances import apsp_unweighted, girth_directed
from repro.graphs import (
    cycle_graph,
    girth_reference,
    gnp_random_graph,
    planted_cycle_graph,
)
from repro.matmul.distance import distance_product, distance_product_ring
from repro.matmul.witnesses import find_witnesses
from repro.subgraphs import count_five_cycles, detect_k_cycle


class TestColourCodingOnSemiringEngine:
    def test_detection_agrees_with_bilinear(self):
        g = planted_cycle_graph(18, 4, seed=3, extra_edge_prob=0.4)
        rng_a = np.random.default_rng(0)
        rng_b = np.random.default_rng(0)
        on_bilinear = detect_k_cycle(g, 4, trials=40, rng=rng_a, method="bilinear")
        on_semiring = detect_k_cycle(g, 4, trials=40, rng=rng_b, method="semiring")
        # Same seeded colour sequence modulo clique padding size; both must
        # be sound, and on this planted instance both should find the cycle.
        assert on_bilinear.value
        assert on_semiring.value

    def test_soundness_on_semiring_engine(self):
        from repro.graphs import random_tree

        g = random_tree(18, seed=4)
        assert not detect_k_cycle(g, 4, trials=8, method="semiring").value


class TestSeidelOnOtherEngines:
    @pytest.mark.parametrize(
        "method,n,p,seed",
        [
            ("semiring", 17, 0.25, 6),
            ("naive", 17, 0.25, 6),
            ("bilinear", 49, 0.2, 1),
            ("semiring", 64, 0.2, 1),
        ],
    )
    def test_distances_match(self, method, n, p, seed):
        g = gnp_random_graph(n, p, seed=seed)
        result = apsp_unweighted(g, method=method)
        assert np.array_equal(result.value, bfs_distances_reference(g))


class TestCountingOnNaiveEngine:
    def test_five_cycles(self):
        from repro.graphs import count_cycles_brute

        g = gnp_random_graph(13, 0.3, seed=8)
        result = count_five_cycles(g, method="naive")
        assert result.value == count_cycles_brute(g, 5)


class TestGirthDirectedOnSemiringEngine:
    def test_matches_reference(self):
        g = cycle_graph(11, directed=True)
        result = girth_directed(g, method="semiring")
        assert result.value == 11

    def test_random_digraph(self):
        g = gnp_random_graph(14, 0.15, seed=9, directed=True)
        result = girth_directed(g, method="semiring")
        assert result.value == girth_reference(g)


class TestWitnessCrossValidation:
    def test_native_and_sampled_witnesses_both_attain_minimum(self):
        """The semiring engine's arg-min and Lemma 21's sampled witnesses
        may differ as indices, but both must attain the same product."""
        n = 16
        rng = np.random.default_rng(5)
        s = rng.integers(0, 5, (n, n), dtype=np.int64)
        t = rng.integers(0, 5, (n, n), dtype=np.int64)
        s[rng.random((n, n)) < 0.2] = INF
        t[rng.random((n, n)) < 0.2] = INF

        # Sampled witnesses through the ring engine (square clique).
        ring_clique = CongestedClique(n)

        def engine(a, b, phase):
            return distance_product_ring(ring_clique, a, b, 5, phase=phase)

        sampled = find_witnesses(
            ring_clique, s, t, engine, rng=np.random.default_rng(2)
        )

        # Native witnesses through the 3D engine (cube clique, padded).
        from repro.runtime import make_clique, pad_matrix

        cube = make_clique(n, "semiring")
        sp = pad_matrix(s, cube.n, fill=INF)
        tp = pad_matrix(t, cube.n, fill=INF)
        product, native = distance_product(cube, sp, tp, with_witnesses=True)

        expected = MIN_PLUS.matmul(s, t)
        for u in range(n):
            for v in range(n):
                if expected[u, v] >= INF:
                    continue
                kw = int(sampled.witnesses[u, v])
                kn = int(native[u, v])
                assert s[u, kw] + t[kw, v] == expected[u, v]
                assert sp[u, kn] + tp[kn, v] == expected[u, v]

    def test_detection_positive_certified(self):
        # Any positive detection corresponds to a real cycle (soundness
        # sweep across engines and ks on mixed graphs).
        for seed in range(3):
            g = gnp_random_graph(13, 0.15, seed=seed)
            for k in (3, 4):
                for method in ("bilinear", "semiring"):
                    res = detect_k_cycle(
                        g, k, trials=10, rng=np.random.default_rng(seed),
                        method=method,
                    )
                    if res.value:
                        assert has_k_cycle_reference(g, k), (seed, k, method)
