"""Threaded vs serial executors: bit-identical values, rounds and meters.

The local-compute executor only decides how block products are scheduled
-- it must be invisible to everything else: identical answers, identical
witness/routing tables, identical round charges and identical per-phase
meter entries for every algorithm, on every engine.  These tests run the
same workloads on cliques of 1 and 2 kernel tile threads (one shared
thread pool, fast-lane sizes) and compare everything; a `slow`-marked
smoke test exercises the threaded path at a bigger size for CI.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from kernel_reference import (
    column_walk,
    cube_matmul,
    cube_matmul_with_witness,
    reference_matmul,
    ring_matmul,
)

from repro.algebra.polynomial import POLYNOMIAL
from repro.algebra.semirings import (
    ALL_SEMIRINGS,
    BOOLEAN,
    MAX_MIN,
    MIN_PLUS,
    PLUS_TIMES,
    Semiring,
)
from repro.clique.executor import Executor
from repro.clique.model import CongestedClique
from repro.constants import INF
from repro.distances import apsp_exact, girth_directed
from repro.distances.components import connected_components
from repro.engine import EngineSession
from repro.graphs.generators import gnp_random_graph, random_weighted_graph

SERIAL = Executor()


@pytest.fixture(scope="module")
def threaded():
    """One 2-thread tile executor for the whole module (its pool is shared)."""
    return Executor(2)


def _clique_pair(n: int) -> tuple[CongestedClique, CongestedClique]:
    return CongestedClique(n), CongestedClique(n, threads=2)


def assert_same_run(serial, other_run):
    """Two RunResults must agree on answer, rounds and every meter entry."""
    if isinstance(serial.value, np.ndarray):
        assert np.array_equal(serial.value, other_run.value)
    else:
        assert serial.value == other_run.value
    assert serial.rounds == other_run.rounds
    assert serial.clique_size == other_run.clique_size
    assert serial.meter.phases == other_run.meter.phases
    for key, val in serial.extras.items():
        other = other_run.extras[key]
        if isinstance(val, np.ndarray):
            assert np.array_equal(val, other), key
        else:
            assert val == other, key


class TestBatchProducts:
    def test_executor_threads(self):
        assert Executor(3).threads == 3
        with pytest.raises(ValueError, match="threads"):
            Executor(0)

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=0, max_value=1000))
    def test_semiring_products_identical(self, threaded, seed):
        rng = np.random.default_rng(seed)
        batch, m = int(rng.integers(2, 10)), int(rng.integers(1, 8))
        for semiring in ALL_SEMIRINGS:
            x = rng.integers(-20, 60, (batch, m, m))
            y = rng.integers(-20, 60, (batch, m, m))
            if semiring is MIN_PLUS:
                x[rng.random(x.shape) < 0.3] = INF
                y[rng.random(y.shape) < 0.3] = INF
            ref = SERIAL.semiring_products(semiring, x, y)
            got = threaded.semiring_products(semiring, x, y)
            assert np.array_equal(ref, got), semiring.name
            if semiring.has_witnesses:
                rp, rw = SERIAL.semiring_products(
                    semiring, x, y, with_witnesses=True
                )
                gp, gw = threaded.semiring_products(
                    semiring, x, y, with_witnesses=True
                )
                assert np.array_equal(rp, gp), semiring.name
                assert np.array_equal(rw, gw), semiring.name

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=0, max_value=1000))
    def test_boolean_packed_products_identical(self, threaded, seed):
        from repro.algebra.semirings import pack_bool_rows, unpack_bool_rows

        rng = np.random.default_rng(seed)
        batch = int(rng.integers(2, 10))
        m, k, n = (int(rng.integers(1, 30)) for _ in range(3))
        x = (rng.random((batch, m, k)) < 0.3).astype(np.int64)
        y = (rng.random((batch, k, n)) < 0.3).astype(np.int64)
        xw, yw = pack_bool_rows(x), pack_bool_rows(y)
        ref = SERIAL.boolean_packed_products(xw, yw, k)
        got = threaded.boolean_packed_products(xw, yw, k)
        assert np.array_equal(ref, got)
        assert np.array_equal(
            unpack_bool_rows(ref, n), BOOLEAN.matmul_batch(x, y)
        )

    def test_executor_thread_counts_identical(self):
        """Every tile thread count computes the same products."""
        rng = np.random.default_rng(13)
        x = rng.integers(-20, 60, (6, 9, 9), dtype=np.int64)
        y = rng.integers(-20, 60, (6, 9, 9), dtype=np.int64)
        x[rng.random(x.shape) < 0.3] = INF
        y[rng.random(y.shape) < 0.3] = INF
        ref_p, ref_w = SERIAL.semiring_products(
            MIN_PLUS, x, y, with_witnesses=True
        )
        for threads in (2, 3, 6):
            got_p, got_w = Executor(threads).semiring_products(
                MIN_PLUS, x, y, with_witnesses=True
            )
            assert np.array_equal(ref_p, got_p), threads
            assert np.array_equal(ref_w, got_w), threads

    def test_ring_products_identical(self, threaded, rng):
        x = rng.integers(-9, 10, (7, 6, 6))
        y = rng.integers(-9, 10, (7, 6, 6))
        assert np.array_equal(
            threaded.ring_products(PLUS_TIMES, x, y),
            SERIAL.ring_products(PLUS_TIMES, x, y),
        )
        xp = rng.integers(0, 2, (5, 4, 4, 3))
        yp = rng.integers(0, 2, (5, 4, 4, 2))
        assert np.array_equal(
            threaded.ring_products(POLYNOMIAL, xp, yp),
            SERIAL.ring_products(POLYNOMIAL, xp, yp),
        )


class _PerBlockOracleExecutor(Executor):
    """Reference executor: a Python loop of *seed oracle* kernels per block.

    Independent of every batch-axis kernel (cube kernels for the selection
    semirings, the cube AND-reduce for Boolean, plain ``@`` for the rings),
    so driving a whole engine product through it pins the batched kernels'
    values, witness tie-breaks, shipped widths and meter entries at once.
    A test installs it by assigning ``clique.executor``.
    """

    def semiring_products(
        self, semiring, lefts, rights, *, with_witnesses=False, out=None
    ):
        lefts = np.asarray(lefts, dtype=np.int64)
        rights = np.asarray(rights, dtype=np.int64)
        if with_witnesses:
            pairs = [
                cube_matmul_with_witness(semiring, lefts[b], rights[b])
                for b in range(lefts.shape[0])
            ]
            values = np.stack([p for p, _ in pairs])
            witnesses = np.stack([w for _, w in pairs])
            if out is None:
                return values, witnesses
            out[0][...] = values
            out[1][...] = witnesses
            return out
        blocks = []
        for b in range(lefts.shape[0]):
            if semiring is BOOLEAN:
                blocks.append(cube_matmul(lefts[b], rights[b]))
            else:
                blocks.append(reference_matmul(semiring, lefts[b], rights[b]))
        return np.stack(blocks)

    def ring_products(self, ring, lefts, rights):
        return np.stack(
            [
                ring_matmul(ring, np.asarray(lefts)[b], np.asarray(rights)[b])
                for b in range(np.asarray(lefts).shape[0])
            ]
        )


def _batch_operands(rng, semiring: Semiring, batch: int, m: int, k: int, n: int):
    hi = int(rng.choice([4, 50, 1 << 40]))
    x = rng.integers(-hi, hi + 1, (batch, m, k), dtype=np.int64)
    y = rng.integers(-hi, hi + 1, (batch, k, n), dtype=np.int64)
    if semiring is MIN_PLUS:
        x[rng.random(x.shape) < 0.3] = INF
        y[rng.random(y.shape) < 0.3] = INF
    elif semiring is MAX_MIN:
        for mat in (x, y):
            mat[rng.random(mat.shape) < 0.2] = INF
            mat[rng.random(mat.shape) < 0.2] = -INF
    elif semiring is BOOLEAN:
        x = (x > 0).astype(np.int64)
        y = (y > 0).astype(np.int64)
    return x, y


class TestBatchAxisKernels:
    """The gen-2 batch-axis kernels vs the retained per-block loop."""

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_values_match_per_block_loop(self, seed):
        rng = np.random.default_rng(seed)
        batch = int(rng.integers(1, 8))
        m, k, n = (int(rng.integers(0, 9)) for _ in range(3))
        for semiring in ALL_SEMIRINGS:
            x, y = _batch_operands(rng, semiring, batch, max(1, m), k, max(1, n))
            got = semiring.matmul_batch(x, y)
            want = np.stack(
                [semiring.matmul(x[b], y[b]) for b in range(batch)]
            )
            assert np.array_equal(got, want), semiring.name

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_witnesses_match_per_block_loop(self, seed):
        rng = np.random.default_rng(seed)
        batch = int(rng.integers(1, 8))
        m, k, n = (int(rng.integers(0, 9)) for _ in range(3))
        for semiring in (MIN_PLUS, MAX_MIN):
            x, y = _batch_operands(rng, semiring, batch, max(1, m), k, max(1, n))
            got_p, got_w = semiring.matmul_batch_with_witness(x, y)
            pairs = [
                semiring.matmul_with_witness(x[b], y[b]) for b in range(batch)
            ]
            assert np.array_equal(got_p, np.stack([p for p, _ in pairs]))
            assert np.array_equal(got_w, np.stack([w for _, w in pairs]))
            # ... and against the exact column walk the packed kernels fall
            # back to.
            walk_p, walk_w = column_walk(semiring, x, y)
            assert np.array_equal(got_p, walk_p), semiring.name
            assert np.array_equal(got_w, walk_w), semiring.name

    @settings(max_examples=6, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_engine_products_pin_widths_and_meters(self, seed):
        """A whole engine product on the per-block-oracle executor charges
        bit-identical meters (values -> widths -> rounds) to the batched
        kernels, for every semiring."""
        rng = np.random.default_rng(seed)
        for semiring in ALL_SEMIRINGS:
            x, y = _batch_operands(rng, semiring, 1, 27, 27, 27)
            x, y = x[0], y[0]
            fast_clique, oracle_clique = CongestedClique(27), CongestedClique(27)
            oracle_clique.executor = _PerBlockOracleExecutor()
            fast = EngineSession(fast_clique, "semiring", semiring)
            oracle = EngineSession(oracle_clique, "semiring", semiring)
            with_wit = semiring.has_witnesses
            if with_wit:
                fp, fw = fast.multiply(x, y, with_witnesses=True)
                op, ow = oracle.multiply(x, y, with_witnesses=True)
                assert np.array_equal(fw, ow), semiring.name
            else:
                fp = fast.multiply(x, y)
                op = oracle.multiply(x, y)
            assert np.array_equal(fp, op), semiring.name
            assert fast_clique.rounds == oracle_clique.rounds
            assert fast_clique.meter.phases == oracle_clique.meter.phases


class TestAlgorithmEquivalence:
    @settings(max_examples=6, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_apsp_exact_with_routing_tables(self, seed):
        graph = random_weighted_graph(
            4 + seed % 9, 0.4, max_weight=20, seed=seed
        )
        for method, size in (("semiring", 27), ("naive", graph.n)):
            serial_clique, threaded_clique = _clique_pair(size)
            serial = apsp_exact(graph, method=method, clique=serial_clique)
            tiled = apsp_exact(graph, method=method, clique=threaded_clique)
            assert_same_run(serial, tiled)

    @settings(max_examples=6, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_girth_directed(self, seed):
        graph = gnp_random_graph(4 + seed % 9, 0.25, seed=seed, directed=True)
        for method, size in (("semiring", 27), ("naive", graph.n)):
            if size < 2:
                continue
            serial_clique, threaded_clique = _clique_pair(size)
            serial = girth_directed(graph, method=method, clique=serial_clique)
            tiled = girth_directed(graph, method=method, clique=threaded_clique)
            assert_same_run(serial, tiled)

    @settings(max_examples=6, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_boolean_closure_components(self, seed):
        graph = gnp_random_graph(4 + seed % 9, 0.2, seed=seed)
        for method, size in (("semiring", 27), ("bilinear", 16)):
            if size < graph.n:
                continue
            serial_clique, threaded_clique = _clique_pair(size)
            serial = connected_components(
                graph, method=method, clique=serial_clique
            )
            tiled = connected_components(
                graph, method=method, clique=threaded_clique
            )
            assert_same_run(serial, tiled)

    @pytest.mark.parametrize("method", ["semiring", "naive"])
    def test_min_plus_witness_squaring(self, rng, method):
        d = rng.integers(0, 100, (27, 27))
        d[rng.random((27, 27)) < 0.2] = INF
        np.fill_diagonal(d, 0)
        serial_clique, threaded_clique = _clique_pair(27)
        s_sess = EngineSession(serial_clique, method, MIN_PLUS)
        t_sess = EngineSession(threaded_clique, method, MIN_PLUS)
        sp, sw = s_sess.multiply(d, d, with_witnesses=True)
        tp, tw = t_sess.multiply(d, d, with_witnesses=True)
        assert np.array_equal(sp, tp)
        assert np.array_equal(sw, tw)
        assert serial_clique.meter.phases == threaded_clique.meter.phases

    @pytest.mark.parametrize("method", ["semiring", "naive"])
    def test_every_engine_runs_its_products_on_the_executor(self, rng, method):
        """A spy on the clique's executor sees the engine's local product,
        so ``--threads`` and the traced kernel time reach every engine."""
        d = rng.integers(0, 100, (27, 27))
        clique = CongestedClique(27)
        calls = []
        products = clique.executor.semiring_products

        def spy(*args, **kwargs):
            calls.append(args[0])
            return products(*args, **kwargs)

        clique.executor.semiring_products = spy
        EngineSession(clique, method, MIN_PLUS).multiply(d, d, with_witnesses=True)
        assert calls == [MIN_PLUS]


@pytest.mark.slow
class TestThreadedSmoke:
    """Bigger threaded-executor smoke (run in CI via `pytest -m slow`)."""

    def test_large_apsp_and_bilinear_threaded(self):
        graph = random_weighted_graph(40, 0.15, max_weight=50, seed=7)
        serial = apsp_exact(graph, clique=CongestedClique(64))
        tiled = apsp_exact(graph, clique=CongestedClique(64, threads=2))
        assert_same_run(serial, tiled)

        rng = np.random.default_rng(11)
        s = rng.integers(-9, 10, (64, 64))
        serial_clique, threaded_clique = _clique_pair(64)
        ref = EngineSession(serial_clique, "bilinear").multiply(s, s)
        got = EngineSession(threaded_clique, "bilinear").multiply(s, s)
        assert np.array_equal(ref, got)
        assert np.array_equal(ref, s @ s)
        assert serial_clique.meter.phases == threaded_clique.meter.phases
