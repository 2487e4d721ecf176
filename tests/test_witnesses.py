"""Tests for §3.4 witness detection (Lemma 21)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.algebra.semirings import MIN_PLUS
from repro.clique import CongestedClique
from repro.constants import INF
from repro.errors import AlgorithmFailureError
from repro.matmul.distance import distance_product_ring
from repro.matmul.witnesses import find_witnesses, unique_witnesses


def _engine(clique, max_entry):
    def product(s, t, phase):
        return distance_product_ring(clique, s, t, max_entry, phase=phase)

    return product


def _random_instance(seed, n, max_entry, inf_prob=0.25):
    rng = np.random.default_rng(seed)
    s = rng.integers(0, max_entry + 1, (n, n), dtype=np.int64)
    t = rng.integers(0, max_entry + 1, (n, n), dtype=np.int64)
    s[rng.random((n, n)) < inf_prob] = INF
    t[rng.random((n, n)) < inf_prob] = INF
    return s, t


class TestFindWitnesses:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_all_witnesses_valid(self, seed):
        n, max_entry = 16, 5
        s, t = _random_instance(seed, n, max_entry)
        clique = CongestedClique(n)
        result = find_witnesses(
            clique, s, t, _engine(clique, max_entry), rng=np.random.default_rng(seed)
        )
        assert result.resolved.all()
        exact = MIN_PLUS.matmul(s, t)
        for u in range(n):
            for v in range(n):
                if exact[u, v] < INF:
                    w = int(result.witnesses[u, v])
                    assert w >= 0
                    assert s[u, w] + t[w, v] == exact[u, v]
                else:
                    assert result.witnesses[u, v] == -1

    @pytest.mark.parametrize("n", [16, 25])
    def test_overhead_is_polylog(self, n):
        """Lemma 21: witnesses cost a polylog(n) factor over the plain
        distance product, not a polynomial one."""
        s, t = _random_instance(n, n, 4, inf_prob=0.2)
        plain = CongestedClique(n)
        distance_product_ring(plain, s, t, 4)
        full = CongestedClique(n)
        find_witnesses(full, s, t, _engine(full, 4), rng=np.random.default_rng(n))
        assert full.rounds < plain.rounds * 20 * max(1, int(np.log2(n)) ** 2)

    def test_many_witness_instance(self):
        # All-zero matrices: every inner index is a witness for every pair,
        # which maximally stresses the sampling stage.
        n = 16
        s = np.zeros((n, n), dtype=np.int64)
        t = np.zeros((n, n), dtype=np.int64)
        clique = CongestedClique(n)
        result = find_witnesses(
            clique, s, t, _engine(clique, 1), rng=np.random.default_rng(0)
        )
        assert result.resolved.all()
        assert (result.witnesses >= 0).all()

    @staticmethod
    def _two_witness_instance(n: int):
        """Every pair has witnesses exactly {1, 2}.

        The bitwise OR of the witness indices is 3, which is *not* a
        witness, so the unique-extraction stage alone cannot resolve any
        pair -- the sampling stage (§3.4 general case) is forced to work.
        """
        s = np.full((n, n), 10, dtype=np.int64)
        t = np.full((n, n), 10, dtype=np.int64)
        s[:, 1] = s[:, 2] = 0
        t[1, :] = t[2, :] = 0
        return s, t

    def test_sampling_stage_resolves_two_witness_instance(self):
        n = 16
        s, t = self._two_witness_instance(n)
        clique = CongestedClique(n)
        result = find_witnesses(
            clique, s, t, _engine(clique, 10), rng=np.random.default_rng(0)
        )
        assert result.resolved.all()
        assert set(np.unique(result.witnesses)) <= {1, 2}

    def test_partial_mode_reports_gaps(self):
        n = 16
        s, t = self._two_witness_instance(n)
        clique = CongestedClique(n)
        result = find_witnesses(
            clique,
            s,
            t,
            _engine(clique, 10),
            rng=np.random.default_rng(0),
            trials_per_scale=0,
            on_failure="partial",
        )
        assert not result.resolved.all()

    def test_raises_when_budget_exhausted(self):
        n = 16
        s, t = self._two_witness_instance(n)
        clique = CongestedClique(n)
        with pytest.raises(AlgorithmFailureError):
            find_witnesses(
                clique,
                s,
                t,
                _engine(clique, 10),
                rng=np.random.default_rng(0),
                trials_per_scale=0,
            )

    def test_rounds_are_charged(self):
        n = 16
        s, t = _random_instance(5, n, 4)
        clique = CongestedClique(n)
        find_witnesses(clique, s, t, _engine(clique, 4), rng=np.random.default_rng(1))
        assert clique.rounds > 0
        assert clique.meter.payloads > 0


class TestUniqueWitnesses:
    def test_identity_instance_resolved_by_bits(self):
        # t = 0 diag, INF elsewhere: the only witness for (u, v) is v itself.
        n = 16
        rng = np.random.default_rng(3)
        s = rng.integers(0, 5, (n, n), dtype=np.int64)
        t = np.full((n, n), INF, dtype=np.int64)
        np.fill_diagonal(t, 0)
        clique = CongestedClique(n)
        engine = _engine(clique, 5)
        p = engine(s, t, "full")
        candidates, used = unique_witnesses(clique, s, t, p, engine)
        assert used >= 1
        for u in range(n):
            for v in range(n):
                if p[u, v] < INF:
                    assert candidates[u, v] == v
