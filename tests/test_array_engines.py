"""Equivalence tests: the array engines vs their per-payload references.

`test_array_primitives.py` pins the *primitives* (`route_array`,
`broadcast_rows`, ...) to the tuple primitives of `tuple_reference`; this
suite does the same for every *algorithm phase* written on them -- the §2.2
bilinear engine's four exchanges, the Lemma 21 witness validation hops, the
Theorem 4 walk exchanges, and the girth's learn-everything replication --
by running the array engine and its tuple reference side by side and
comparing the full per-phase :class:`~repro.clique.accounting.PhaseCost`
stream.  Also covers the block collectives (`scatter_blocks` /
`gather_blocks` / `send_array` / `allgather_rows`) and the blocked Boolean
kernel against its cube oracle.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from tuple_reference import (
    TupleClique,
    bilinear_matmul_tuple,
    validate_candidates_tuple,
    walk_check_tuple,
)

from repro.algebra.bilinear import classical, strassen_power
from repro.algebra.polynomial import encode_minplus
from repro.algebra.semirings import BOOLEAN, MIN_PLUS
from repro.clique.messages import words_for_array
from repro.clique.model import CongestedClique, ScheduleMode
from repro.constants import INF
from repro.errors import CliqueModelError, LoadBoundExceededError
from repro.graphs import (
    bipartite_random_graph,
    cycle_graph,
    gnp_random_graph,
    windmill_graph,
)
from repro.matmul.bilinear_clique import bilinear_matmul
from repro.matmul.ringops import POLYNOMIAL_RING
from repro.matmul.witnesses import _validate_candidates
from repro.runtime import boolean_product
from repro.subgraphs import four_cycle
from repro.subgraphs.four_cycle import detect_four_cycles


def _phases(clique: CongestedClique):
    return [
        (
            p.phase,
            p.primitive,
            p.rounds,
            p.words,
            p.payloads,
            p.max_send_words,
            p.max_recv_words,
        )
        for p in clique.meter.phases
    ]


class TestBilinearEquivalence:
    @pytest.mark.parametrize(
        "n,algorithm",
        [(16, None), (25, None), (49, None), (64, classical(4)), (4, strassen_power(0))],
    )
    def test_phases_and_product_match(self, n, algorithm, rng):
        s = rng.integers(-9, 10, (n, n), dtype=np.int64)
        t = rng.integers(-9, 10, (n, n), dtype=np.int64)
        array_clique = CongestedClique(n)
        tuple_clique = CongestedClique(n)
        p_array = bilinear_matmul(array_clique, s, t, algorithm)
        p_tuple = bilinear_matmul_tuple(TupleClique(tuple_clique), s, t, algorithm)
        assert np.array_equal(p_array, s @ t)
        assert np.array_equal(p_tuple, p_array)
        assert _phases(array_clique) == _phases(tuple_clique)

    @settings(max_examples=6, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_random_instances(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.choice([16, 25, 36]))
        s = rng.integers(-50, 51, (n, n), dtype=np.int64)
        t = rng.integers(-50, 51, (n, n), dtype=np.int64)
        array_clique = CongestedClique(n)
        tuple_clique = CongestedClique(n)
        assert np.array_equal(
            bilinear_matmul(array_clique, s, t),
            bilinear_matmul_tuple(TupleClique(tuple_clique), s, t),
        )
        assert _phases(array_clique) == _phases(tuple_clique)

    def test_wide_entries_charge_identically(self, rng):
        # Wide entries exercise the per-piece honest-width vectorisation.
        n = 16
        s = rng.integers(-(2**40), 2**40, (n, n), dtype=np.int64)
        t = rng.integers(-3, 4, (n, n), dtype=np.int64)
        array_clique = CongestedClique(n)
        tuple_clique = CongestedClique(n)
        bilinear_matmul(array_clique, s, t)
        bilinear_matmul_tuple(TupleClique(tuple_clique), s, t)
        assert _phases(array_clique) == _phases(tuple_clique)

    def test_decode_widening_stays_within_load_bound(self):
        # Regression: the step-7 load bound must use the *decoded* entry
        # width.  Entries of 50 give products of one word (20000 < 2^15)
        # whose equation-(2) sums cross the word boundary (40000 needs 2
        # words at 16-bit words); the old pre-decode bound raised
        # LoadBoundExceededError on this valid multiplication.
        n = 16
        s = np.full((n, n), 50, dtype=np.int64)
        t = np.full((n, n), 50, dtype=np.int64)
        array_clique = CongestedClique(n)
        tuple_clique = CongestedClique(n)
        p_array = bilinear_matmul(array_clique, s, t, classical(2))
        p_tuple = bilinear_matmul_tuple(
            TupleClique(tuple_clique), s, t, classical(2)
        )
        assert np.array_equal(p_array, s @ t)
        assert np.array_equal(p_tuple, p_array)
        assert _phases(array_clique) == _phases(tuple_clique)

    def test_polynomial_ring_phases_match(self, rng):
        n = 16
        s = rng.integers(0, 4, (n, n), dtype=np.int64)
        t = rng.integers(0, 4, (n, n), dtype=np.int64)
        es = encode_minplus(s, 3, 4)
        et = encode_minplus(t, 3, 4)
        array_clique = CongestedClique(n)
        tuple_clique = CongestedClique(n)
        p_array = bilinear_matmul(array_clique, es, et, ring=POLYNOMIAL_RING)
        p_tuple = bilinear_matmul_tuple(
            TupleClique(tuple_clique), es, et, ring=POLYNOMIAL_RING
        )
        assert np.array_equal(p_array, p_tuple)
        assert _phases(array_clique) == _phases(tuple_clique)

    def test_exact_mode_phases_match(self, rng):
        n = 16
        s = rng.integers(0, 3, (n, n), dtype=np.int64)
        t = rng.integers(0, 3, (n, n), dtype=np.int64)
        array_clique = CongestedClique(n, mode=ScheduleMode.EXACT)
        tuple_clique = CongestedClique(n, mode=ScheduleMode.EXACT)
        bilinear_matmul(array_clique, s, t)
        bilinear_matmul_tuple(TupleClique(tuple_clique), s, t)
        assert _phases(array_clique) == _phases(tuple_clique)


class TestWitnessValidationEquivalence:
    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_phases_and_verdicts_match(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 16))
        s = rng.integers(0, 6, (n, n), dtype=np.int64)
        t = rng.integers(0, 6, (n, n), dtype=np.int64)
        s[rng.random((n, n)) < 0.2] = INF
        t[rng.random((n, n)) < 0.2] = INF
        p = MIN_PLUS.matmul(s, t)
        candidates = rng.integers(-1, n, (n, n), dtype=np.int64)
        needed = rng.random((n, n)) < 0.5
        array_clique = CongestedClique(n)
        tuple_clique = CongestedClique(n)
        ok_array = _validate_candidates(
            array_clique, s, t, p, candidates, needed, "v"
        )
        ok_tuple = validate_candidates_tuple(
            TupleClique(tuple_clique), s, t, p, candidates, needed, "v"
        )
        assert np.array_equal(ok_array, ok_tuple)
        assert _phases(array_clique) == _phases(tuple_clique)


def _detect_with_tuple_walks(graph):
    """`detect_four_cycles` with its walk phases swapped for the reference."""

    def tuple_walks(clique, *args):
        return walk_check_tuple(TupleClique(clique), *args)

    with mock.patch.object(four_cycle, "_walk_check_array", tuple_walks):
        return detect_four_cycles(graph)


class TestFourCycleEquivalence:
    @settings(max_examples=10, deadline=None)
    @given(
        st.integers(min_value=0, max_value=10**6),
        st.floats(min_value=0.05, max_value=0.4),
    )
    def test_random_graphs(self, seed, p):
        g = gnp_random_graph(20, p, seed=seed)
        res_array = detect_four_cycles(g)
        res_tuple = _detect_with_tuple_walks(g)
        assert res_array.value == res_tuple.value
        assert _phases_from(res_array) == _phases_from(res_tuple)

    def test_structured_families(self):
        for g in (
            windmill_graph(33),
            cycle_graph(7),
            cycle_graph(4),
            bipartite_random_graph(48, 3.0 / 48, seed=7),
        ):
            res_array = detect_four_cycles(g)
            res_tuple = _detect_with_tuple_walks(g)
            assert res_array.value == res_tuple.value
            assert _phases_from(res_array) == _phases_from(res_tuple)

    def test_engine_option_is_gone(self):
        # The library has a single walk formulation, so there is no option
        # to select one.
        with pytest.raises(TypeError):
            detect_four_cycles(gnp_random_graph(8, 0.3, seed=0), engine="array")


def _phases_from(result):
    return [
        (
            p.phase,
            p.primitive,
            p.rounds,
            p.words,
            p.payloads,
            p.max_send_words,
            p.max_recv_words,
        )
        for p in result.meter.phases
    ]


class TestAllgatherRowsEquivalence:
    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_phases_and_records_match(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 10))
        rows = [
            rng.integers(0, 50, (int(rng.integers(0, 6)), 2)).astype(np.int64)
            for _ in range(n)
        ]
        array_clique = CongestedClique(n, word_bits=16)
        tuple_clique = CongestedClique(n, word_bits=16)
        got = array_clique.allgather_rows(rows, words_per_record=2, phase="ag")
        want = TupleClique(tuple_clique).allgather_records(
            [[tuple(map(int, r)) for r in node_rows] for node_rows in rows],
            words_per_record=2,
            phase="ag",
        )
        assert [tuple(map(int, r)) for r in got] == want
        assert _phases(array_clique) == _phases(tuple_clique)

    def test_empty_input(self):
        clique = CongestedClique(3)
        out = clique.allgather_rows(
            [np.zeros((0, 2), dtype=np.int64)] * 3, phase="ag"
        )
        assert out.shape == (0, 2)
        assert clique.rounds == 1  # the counts broadcast still happens

    def test_ragged_record_width_rejected(self):
        clique = CongestedClique(2)
        with pytest.raises(CliqueModelError):
            clique.allgather_rows(
                [
                    np.zeros((1, 2), dtype=np.int64),
                    np.zeros((1, 3), dtype=np.int64),
                ]
            )


class TestBlockCollectives:
    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_scatter_gather_roundtrip_and_charges(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 10))
        k = int(rng.integers(1, n + 1))
        blocks = rng.integers(-100, 100, (n, k, 3)).astype(np.int64)
        array_clique = CongestedClique(n, word_bits=16)
        out = array_clique.scatter_blocks(blocks, phase="x")
        assert np.array_equal(out, blocks.swapaxes(0, 1))
        # Tuple-path cost oracle for the same exchange.
        tuple_clique = CongestedClique(n, word_bits=16)
        outboxes = [
            [
                (j, blocks[v, j], words_for_array(blocks[v, j], 16))
                for j in range(k)
            ]
            for v in range(n)
        ]
        TupleClique(tuple_clique).route(outboxes, phase="x")
        assert _phases(array_clique) == _phases(tuple_clique)
        # gather is the inverse exchange.
        back_clique = CongestedClique(n, word_bits=16)
        back = back_clique.gather_blocks(out, phase="x")
        assert np.array_equal(back, blocks[:, :k])
        gather_oracle = CongestedClique(n, word_bits=16)
        outboxes = [
            [
                (u, out[v, u], words_for_array(out[v, u], 16))
                for u in range(n)
            ]
            for v in range(k)
        ] + [[] for _ in range(n - k)]
        TupleClique(gather_oracle).route(outboxes, phase="x")
        assert _phases(back_clique) == _phases(gather_oracle)

    def test_send_array_matches_send(self, rng):
        n = 6
        dests = [rng.integers(0, n, 4).astype(np.int64) for _ in range(n)]
        blocks = [rng.integers(-9, 9, (4, 2)).astype(np.int64) for _ in range(n)]
        array_clique = CongestedClique(n, word_bits=16)
        inboxes = array_clique.send_array(dests, blocks, phase="s")
        tuple_clique = CongestedClique(n, word_bits=16)
        outboxes = [
            [
                (
                    int(dests[v][i]),
                    blocks[v][i],
                    words_for_array(blocks[v][i], 16),
                )
                for i in range(4)
            ]
            for v in range(n)
        ]
        tuple_in = TupleClique(tuple_clique).send(outboxes, phase="s")
        assert _phases(array_clique) == _phases(tuple_clique)
        for u in range(n):
            assert [s for s, _ in tuple_in[u]] == inboxes[u].sources.tolist()

    def test_send_array_pair_bound_enforced(self):
        n = 4
        clique = CongestedClique(n)
        dests = [np.full(5, 1, dtype=np.int64)] + [
            np.zeros(0, dtype=np.int64) for _ in range(n - 1)
        ]
        blocks = [np.ones((5, 2), dtype=np.int64)] + [
            np.zeros((0, 2), dtype=np.int64) for _ in range(n - 1)
        ]
        with pytest.raises(LoadBoundExceededError):
            clique.send_array(dests, blocks, expect_max_pair=3)

    def test_malformed_block_stacks_rejected(self):
        clique = CongestedClique(3)
        with pytest.raises(CliqueModelError):
            clique.scatter_blocks(np.zeros((2, 2, 2), dtype=np.int64))  # n rows
        with pytest.raises(CliqueModelError):
            clique.scatter_blocks(np.zeros((3, 4, 2), dtype=np.int64))  # k > n
        with pytest.raises(CliqueModelError):
            clique.gather_blocks(np.zeros((4, 3, 2), dtype=np.int64))  # k > n
        with pytest.raises(CliqueModelError):
            clique.gather_blocks(np.zeros((2, 2, 2), dtype=np.int64))  # n cols


class TestBooleanKernel:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_blocked_matches_cube_oracle(self, seed):
        rng = np.random.default_rng(seed)
        m, k, n = (int(v) for v in rng.integers(1, 40, 3))
        x = (rng.random((m, k)) < rng.random()).astype(np.int64)
        y = (rng.random((k, n)) < rng.random()).astype(np.int64)
        want = BOOLEAN.cube_matmul(x, y)
        assert np.array_equal(BOOLEAN.matmul(x, y), want)
        # Tiling must not change the result.
        assert np.array_equal(BOOLEAN.matmul(x, y, tile=3), want)
        assert np.array_equal(BOOLEAN.matmul(x, y, tile=1), want)

    def test_empty_inner_dimension(self):
        x = np.zeros((3, 0), dtype=np.int64)
        y = np.zeros((0, 4), dtype=np.int64)
        assert np.array_equal(BOOLEAN.matmul(x, y), np.zeros((3, 4), np.int64))

    def test_bad_tile_rejected(self):
        x = np.ones((2, 2), dtype=np.int64)
        with pytest.raises(ValueError):
            BOOLEAN.matmul(x, x, tile=0)

    @pytest.mark.parametrize("method", ["semiring", "naive"])
    def test_boolean_product_runs_on_boolean_semiring(self, method, rng):
        # The semiring engines now multiply directly over the Boolean
        # semiring: 0/1 partials, blocked kernel locally, same product.
        n = 27 if method == "semiring" else 16
        x = rng.integers(0, 2, (n, n), dtype=np.int64) * 5
        y = rng.integers(0, 2, (n, n), dtype=np.int64)
        clique = CongestedClique(n)
        got = boolean_product(clique, x, y, method, phase="t")
        want = (((x > 0).astype(np.int64) @ y) > 0).astype(np.int64)
        assert np.array_equal(got, want)
        assert clique.rounds > 0
