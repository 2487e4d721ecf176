"""Tests for session closures, Boolean-product witnesses and load reports."""

from __future__ import annotations

import numpy as np
import pytest

from repro.algebra.semirings import BOOLEAN, MAX_MIN, MIN_PLUS
from repro.clique import CongestedClique
from repro.constants import INF
from repro.engine import EngineSession, required_clique_size
from repro.matmul.boolean_witnesses import encode_boolean, find_boolean_witnesses


class TestClosure:
    def test_boolean_closure_is_reachability(self):
        n = 8
        a = np.zeros((n, n), dtype=np.int64)
        a[0, 1] = a[1, 2] = a[2, 3] = a[5, 6] = 1
        session = EngineSession(CongestedClique(n), "semiring", BOOLEAN)
        reach = session.closure(a)
        assert reach[0, 3] == 1
        assert reach[0, 5] == 0
        assert reach[5, 6] == 1

    def test_minplus_closure_is_apsp(self, rng):
        from repro.graphs import apsp_reference, random_weighted_digraph

        g = random_weighted_digraph(8, 0.35, 9, seed=5)
        w = g.weight_matrix()
        session = EngineSession(CongestedClique(8), "semiring", MIN_PLUS)
        dist = session.closure(w)
        ref = apsp_reference(g)
        off_diag = ~np.eye(8, dtype=bool)
        assert np.array_equal(dist[off_diag], ref[off_diag])


class TestClosureSteps:
    """After ``t`` squarings a closure covers exactly the walks of at most
    ``2^t`` edges, and charges squarings ``0..t-1`` only.  The seed is the
    directed path ``0 -> 1 -> ... -> n-1`` on the engine's clique, whose
    ``i -> j`` walk has ``j - i`` edges, so no squaring below the default
    count is a fixed point."""

    @staticmethod
    def _path_seed(n, zero, one, edges):
        seed = np.full((n, n), zero, dtype=np.int64)
        np.fill_diagonal(seed, one)
        seed[np.arange(n - 1), np.arange(1, n)] = edges
        return seed

    @staticmethod
    def _check_steps(method, semiring, seed_for, expect):
        """``seed_for(n)`` is the path seed on ``n`` nodes; ``expect(hops,
        reach)`` the closure of the walks of at most ``reach`` edges."""
        n = required_clique_size(16, method)
        idx = np.arange(n)
        hops = idx[None, :] - idx[:, None]
        for steps in (1, 2, 3):
            clique = CongestedClique(n)
            session = EngineSession(clique, method, semiring)
            got = session.closure(seed_for(n), steps=steps)
            assert np.array_equal(got, expect(hops, 1 << steps)), steps
            assert session.last_squarings == steps
            charged = {cost.phase.split("/")[1] for cost in clique.meter.phases}
            assert charged == {f"sq{i}" for i in range(steps)}, steps

    @pytest.mark.parametrize("method", ["semiring", "bilinear", "naive"])
    def test_boolean_steps_bound_the_walk_length(self, method):
        self._check_steps(
            method,
            BOOLEAN,
            lambda n: self._path_seed(n, 0, 0, 1),
            lambda hops, reach: ((hops >= 1) & (hops <= reach)).astype(
                np.int64
            ),
        )

    @pytest.mark.parametrize("method", ["semiring", "naive"])
    def test_minplus_steps_are_bounded_hop_distances(self, method):
        self._check_steps(
            method,
            MIN_PLUS,
            lambda n: self._path_seed(n, INF, 0, 1),
            lambda hops, reach: np.where(
                (hops >= 0) & (hops <= reach), hops, INF
            ),
        )

    @pytest.mark.parametrize("method", ["semiring", "naive"])
    def test_maxmin_steps_are_bounded_hop_bottlenecks(self, method):
        # Edge (v, v+1) has capacity n - 1 - v, so the narrowest edge of
        # the i -> j path is its last one, of capacity n - j.
        def expect(hops, reach):
            n = hops.shape[0]
            narrowest = n - np.arange(n)[None, :]
            inside = (hops >= 1) & (hops <= reach)
            return np.where(hops == 0, INF, np.where(inside, narrowest, -INF))

        self._check_steps(
            method,
            MAX_MIN,
            lambda n: self._path_seed(n, -INF, INF, np.arange(n - 1, 0, -1)),
            expect,
        )


class TestBooleanWitnesses:
    def test_encoding(self):
        b = np.array([[1, 0]], dtype=np.int64)
        enc = encode_boolean(b)
        assert enc[0, 0] == 0
        assert enc[0, 1] == INF

    @pytest.mark.parametrize("seed,n", [(0, 16), (1, 16), (16, 16), (25, 25)])
    def test_witnesses_valid(self, seed, n):
        rng = np.random.default_rng(seed)
        s = (rng.random((n, n)) < 0.4).astype(np.int64)
        t = (rng.random((n, n)) < 0.4).astype(np.int64)
        clique = CongestedClique(n)
        product, result = find_boolean_witnesses(
            clique, s, t, rng=np.random.default_rng(seed)
        )
        assert np.array_equal(product, ((s @ t) > 0).astype(np.int64))
        assert result.resolved.all()
        for u in range(n):
            for v in range(n):
                if product[u, v]:
                    k = int(result.witnesses[u, v])
                    assert s[u, k] == 1 and t[k, v] == 1
                else:
                    assert result.witnesses[u, v] == -1


class TestLoadReport:
    def test_balance_of_semiring_run(self, rng):
        """Every node carries an equal share of both §2.1 exchanges: the
        busiest node's traffic is within 10% of the mean."""
        from repro.matmul.semiring3d import semiring_matmul

        n = 27
        s = rng.integers(0, 2, (n, n), dtype=np.int64)
        clique = CongestedClique(n)
        semiring_matmul(clique, s, s)
        phases = clique.meter.phases
        assert [p.phase.split("/")[-1] for p in phases] == [
            "step1-distribute", "step3-recombine"
        ]
        for p in phases:
            busiest = max(p.max_send_words, p.max_recv_words)
            assert busiest / (p.words / n) == pytest.approx(1.0, abs=0.1)
