"""Tests for the shared runtime glue (padding, dispatch, broadcasts)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.algebra.semirings import BOOLEAN, PLUS_TIMES
from repro.clique import CongestedClique
from repro.constants import INF
from repro.runtime import (
    EngineSession,
    make_clique,
    or_broadcast,
    pad_matrix,
    required_clique_size,
    resolve_rng,
    sum_broadcast,
)


class TestRequiredCliqueSize:
    def test_semiring_needs_cubes(self):
        assert required_clique_size(20, "semiring") == 27
        assert required_clique_size(27, "semiring") == 27

    def test_bilinear_needs_squares(self):
        assert required_clique_size(20, "bilinear") == 25
        assert required_clique_size(49, "bilinear") == 49

    def test_naive_takes_anything(self):
        assert required_clique_size(13, "naive") == 13

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            required_clique_size(10, "quantum")


class TestPadMatrix:
    def test_zero_padding(self):
        mat = np.arange(4, dtype=np.int64).reshape(2, 2)
        out = pad_matrix(mat, 4)
        assert out.shape == (4, 4)
        assert np.array_equal(out[:2, :2], mat)
        assert not out[2:, :].any()

    def test_inf_padding_keeps_zero_diagonal(self):
        mat = np.zeros((2, 2), dtype=np.int64)
        out = pad_matrix(mat, 4, fill=INF)
        assert out[2, 3] == INF
        assert out[2, 2] == 0
        assert out[3, 3] == 0

    def test_no_op_copy(self):
        mat = np.ones((3, 3), dtype=np.int64)
        out = pad_matrix(mat, 3)
        out[0, 0] = 9
        assert mat[0, 0] == 1

    def test_shrink_rejected(self):
        with pytest.raises(ValueError):
            pad_matrix(np.ones((4, 4), dtype=np.int64), 2)


class TestProducts:
    def test_all_engines_agree(self, rng):
        base_x = rng.integers(0, 3, (20, 20), dtype=np.int64)
        base_y = rng.integers(0, 3, (20, 20), dtype=np.int64)
        results = {}
        for method in ("bilinear", "semiring", "naive"):
            n = required_clique_size(20, method)
            x = pad_matrix(base_x, n)
            y = pad_matrix(base_y, n)
            session = EngineSession(CongestedClique(n), method, PLUS_TIMES)
            results[method] = session.multiply(x, y)[:20, :20]
        assert np.array_equal(results["bilinear"], results["semiring"])
        assert np.array_equal(results["bilinear"], results["naive"])
        assert np.array_equal(results["naive"], base_x @ base_y)

    def test_boolean_product_thresholds(self, rng):
        n = 16
        x = (rng.random((n, n)) < 0.5).astype(np.int64) * 7  # non-binary input
        y = (rng.random((n, n)) < 0.5).astype(np.int64)
        session = EngineSession(CongestedClique(n), "bilinear", BOOLEAN)
        got = session.multiply(x, y)
        want = (((x > 0).astype(np.int64) @ y) > 0).astype(np.int64)
        assert np.array_equal(got, want)

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            EngineSession(CongestedClique(16), "fft", PLUS_TIMES)


class TestBroadcastHelpers:
    def test_or_broadcast(self):
        clique = CongestedClique(5)
        assert or_broadcast(clique, [False, False, True, False, False], "t")
        assert not or_broadcast(clique, [False] * 5, "t")
        assert clique.rounds == 2

    def test_sum_broadcast(self):
        clique = CongestedClique(4)
        assert sum_broadcast(clique, [1, 2, 3, 4], "t") == 10

    def test_make_clique_padding(self):
        clique = make_clique(20, "semiring")
        assert clique.n == 27


class TestResolveRng:
    def test_explicit_rng_wins(self):
        rng = np.random.default_rng(123)
        assert resolve_rng(rng, seed=5) is rng
        assert resolve_rng(rng, seed=None) is rng

    def test_deterministic_by_default(self):
        a = resolve_rng().integers(0, 1000, 16)
        b = resolve_rng().integers(0, 1000, 16)
        assert np.array_equal(a, b)

    def test_seed_selects_stream(self):
        a = resolve_rng(seed=7).integers(0, 1000, 16)
        b = resolve_rng(seed=7).integers(0, 1000, 16)
        c = resolve_rng(seed=8).integers(0, 1000, 16)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_shared_stream_advances_across_calls(self):
        """``seed=None`` is the fix for replayed trial batches: the shared
        module-level generator keeps advancing, so two successive calls
        draw different randomness."""
        first = resolve_rng(seed=None)
        second = resolve_rng(seed=None)
        assert first is second  # one shared stream, not two fresh ones
        a = first.integers(0, 2**30, 32)
        b = second.integers(0, 2**30, 32)
        assert not np.array_equal(a, b)

