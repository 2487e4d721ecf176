"""Kernel generation 3: threaded kernel tiles + persistent packed closures.

Three invariants pin the third kernel wave to the retained oracles:

* **Scheduling is invisible.**  Every tile thread count produces
  bit-identical values and witnesses for every batched kernel -- tiles
  write disjoint output slices and no kernel merges in scheduling order --
  and the tile range splitter is balanced, gap-free and non-overlapping on
  every shape (property-tested).  A failing tile raises only after its
  siblings finish.
* **Packing is invisible.**  The fully-packed Boolean §2.1 pipeline and the
  persistent packed closure charge the *same phases* (rounds, words,
  payloads, per-node loads) as the unpacked path and return the same
  matrices, across densities, sizes, thread counts, and with robust
  (fault-injected) collectives layered on top.
* **Lifecycle is deterministic.**  Engine sessions release their arena on
  context exit.
"""

from __future__ import annotations

import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from kernel_reference import cube_matmul

from repro.algebra import backends
from repro.algebra.backends import run_tiles, tile_ranges
from repro.algebra.semirings import (
    BOOLEAN,
    MAX_MIN,
    MIN_PLUS,
    pack_bool_rows,
    packed_words,
    unpack_bool_rows,
)
from repro.clique.executor import Executor
from repro.clique.model import CongestedClique
from repro.constants import INF
from repro.engine import EngineSession, make_clique, open_session
from repro.matmul.semiring3d import (
    boolean_matmul_packed,
    pack_bool_matrix,
    semiring_matmul,
    unpack_bool_matrix,
)
from tests.conftest import per_product_boolean_closure


def _phases(clique):
    return [
        (p.phase, p.primitive, p.rounds, p.words, p.payloads,
         p.max_send_words, p.max_recv_words)
        for p in clique.meter.phases
    ]


# --------------------------------------------------------------------- #
# Tile runner
# --------------------------------------------------------------------- #


class TestRunTiles:
    def test_run_propagates_task_errors(self):
        def boom():
            raise RuntimeError("tile failed")

        with pytest.raises(RuntimeError, match="tile failed"):
            run_tiles([boom, boom], 2)

    @pytest.mark.parametrize("threads, count", [(1, 6), (4, 1)])
    def test_one_thread_or_one_tile_runs_inline(self, threads, count):
        """The tiles run in order on the calling thread and no pool is
        built for the count."""
        pools = dict(backends._POOLS)
        ran = []
        run_tiles(
            [
                partial(ran.append, (i, threading.get_ident()))
                for i in range(count)
            ],
            threads,
        )
        assert ran == [(i, threading.get_ident()) for i in range(count)]
        assert backends._POOLS == pools

    def test_tiles_share_one_pool_of_that_many_workers(self):
        """``T`` tiles run at once on the count's pooled workers, and a
        later call at that count reuses the same pool."""
        threads = 3
        start = threading.Barrier(threads, timeout=30)
        names = []

        def tile():
            start.wait()  # breaks unless all T tiles run concurrently
            names.append(threading.current_thread().name)

        try:
            run_tiles([tile] * threads, threads)
            pool = backends._POOLS[threads]
            run_tiles([tile] * threads, threads)
            assert backends._POOLS[threads] is pool
        finally:
            pool = backends._POOLS.pop(threads, None)
            if pool is not None:
                pool.shutdown(wait=True)
        assert len(names) == 2 * threads
        assert all(name.startswith("repro-tile") for name in names)
        assert threading.current_thread().name not in names

    def test_failing_tile_waits_for_its_siblings(self):
        """The error reaches the caller only after every sibling tile has
        finished writing into the caller's outputs."""
        sibling_done = threading.Event()

        def boom():
            raise RuntimeError("tile failed")

        def slow():
            time.sleep(0.2)
            sibling_done.set()

        with pytest.raises(RuntimeError, match="tile failed"):
            run_tiles([boom, slow], 2)
        assert sibling_done.is_set()

    def test_racing_first_calls_share_one_pool(self, monkeypatch):
        """Callers racing on a new thread count build one pool between
        them, and every tile of every call runs."""
        threads = 7
        made = []

        def counting_pool(*args, **kwargs):
            made.append(1)
            time.sleep(0.01)  # widen the check-then-create window
            return ThreadPoolExecutor(*args, **kwargs)

        monkeypatch.setattr(backends, "ThreadPoolExecutor", counting_pool)
        assert threads not in backends._POOLS
        sums = []
        start = threading.Barrier(8)

        def caller():
            out = np.zeros(2 * threads)
            start.wait(timeout=30)
            run_tiles(
                [partial(out.__setitem__, i, 1) for i in range(out.size)],
                threads,
            )
            sums.append(out.sum())

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            callers = [threading.Thread(target=caller) for _ in range(8)]
            for thread in callers:
                thread.start()
            for thread in callers:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
            pool = backends._POOLS.pop(threads, None)
            if pool is not None:
                pool.shutdown(wait=True)
        assert not any(thread.is_alive() for thread in callers)
        assert sums == [2 * threads] * 8
        assert len(made) == 1


# --------------------------------------------------------------------- #
# Tile range splitter
# --------------------------------------------------------------------- #


class TestRangeSplitters:
    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(min_value=0, max_value=500),
        st.integers(min_value=1, max_value=40),
    )
    def test_balanced_gapfree_nonoverlapping(self, total, parts):
        ranges = tile_ranges(total, parts)
        # Gap-free and non-overlapping: ranges chain exactly over [0, total).
        cursor = 0
        for lo, hi in ranges:
            assert lo == cursor and hi > lo
            cursor = hi
        assert cursor == total or (total == 0 and ranges == [])
        # Balanced: sizes differ by at most one.
        if ranges:
            sizes = [hi - lo for lo, hi in ranges]
            assert max(sizes) - min(sizes) <= 1
            assert len(ranges) == min(parts, total)

    def test_degenerate_shapes(self):
        assert tile_ranges(0, 5) == []
        assert tile_ranges(1, 8) == [(0, 1)]
        assert tile_ranges(3, 8) == [(0, 1), (1, 2), (2, 3)]
        with pytest.raises(ValueError):
            tile_ranges(-1, 2)
        with pytest.raises(ValueError):
            tile_ranges(5, 0)


# --------------------------------------------------------------------- #
# Threaded tiles == serial tiles, bit for bit
# --------------------------------------------------------------------- #


class TestThreadedKernelEquivalence:
    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_boolean_packed_batch(self, seed):
        rng = np.random.default_rng(seed)
        batch = int(rng.integers(2, 8))
        m, k, n = (int(rng.integers(1, 40)) for _ in range(3))
        x = (rng.random((batch, m, k)) < 0.25).astype(np.int64)
        y = (rng.random((batch, k, n)) < 0.25).astype(np.int64)
        serial = BOOLEAN.packed_matmul_batch(x, y)
        threaded = BOOLEAN.packed_matmul_batch(x, y, threads=2)
        assert np.array_equal(serial, threaded)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_selection_witness_batch(self, seed):
        rng = np.random.default_rng(seed)
        batch = int(rng.integers(2, 8))
        m, k, n = (int(rng.integers(1, 12)) for _ in range(3))
        for semiring in (MIN_PLUS, MAX_MIN):
            x = rng.integers(-50, 50, (batch, m, k), dtype=np.int64)
            y = rng.integers(-50, 50, (batch, k, n), dtype=np.int64)
            if semiring is MIN_PLUS:
                x[rng.random(x.shape) < 0.3] = INF
                y[rng.random(y.shape) < 0.3] = INF
            sp, sw = semiring.matmul_batch_with_witness(x, y)
            tp, tw = semiring.matmul_batch_with_witness(x, y, threads=2)
            assert np.array_equal(sp, tp), semiring.name
            assert np.array_equal(sw, tw), semiring.name

    def test_single_big_block_column_split(self):
        """batch == 1 forces the column split path (threads over output
        columns); values and witnesses must still match serial exactly."""
        rng = np.random.default_rng(3)
        x = rng.integers(0, 100, (1, 64, 64), dtype=np.int64)
        y = rng.integers(0, 100, (1, 64, 64), dtype=np.int64)
        sp, sw = MIN_PLUS.matmul_batch_with_witness(x, y)
        tp, tw = MIN_PLUS.matmul_batch_with_witness(x, y, threads=2)
        assert np.array_equal(sp, tp) and np.array_equal(sw, tw)

    def test_executor_with_two_threads(self):
        rng = np.random.default_rng(5)
        x = (rng.random((6, 16, 16)) < 0.3).astype(np.int64)
        y = (rng.random((6, 16, 16)) < 0.3).astype(np.int64)
        ref = Executor().semiring_products(BOOLEAN, x, y)
        got = Executor(2).semiring_products(BOOLEAN, x, y)
        assert np.array_equal(ref, got)


# --------------------------------------------------------------------- #
# Pre-packed Boolean kernel and the packed §2.1 pipeline
# --------------------------------------------------------------------- #


class TestPackedWordsKernel:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_pack_roundtrip(self, seed):
        rng = np.random.default_rng(seed)
        shape = tuple(int(rng.integers(1, 20)) for _ in range(2))
        bits = int(rng.integers(0, 200))
        x = (rng.random(shape + (bits,)) < 0.4).astype(np.int64)
        words = pack_bool_rows(x)
        assert words.shape == shape + (packed_words(bits),)
        assert np.array_equal(unpack_bool_rows(words, bits), x)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_packed_in_packed_out_matches_cube(self, seed):
        rng = np.random.default_rng(seed)
        batch = int(rng.integers(1, 5))
        m, k, n = (int(rng.integers(1, 50)) for _ in range(3))
        x = (rng.random((batch, m, k)) < 0.3).astype(np.int64)
        y = (rng.random((batch, k, n)) < 0.3).astype(np.int64)
        packed = BOOLEAN.packed_words_matmul_batch(
            pack_bool_rows(x), pack_bool_rows(y), k
        )
        want = np.stack([cube_matmul(x[b], y[b]) for b in range(batch)])
        # The packed result *is* the packed truth -- products compose
        # without unpacking.
        assert np.array_equal(packed, pack_bool_rows(want))
        assert np.array_equal(unpack_bool_rows(packed, n), want)

    def test_composes_across_repeated_squarings(self):
        rng = np.random.default_rng(17)
        a = (rng.random((1, 24, 24)) < 0.1).astype(np.int64)
        packed = pack_bool_rows(a)
        dense = a
        for _ in range(3):
            packed = BOOLEAN.packed_words_matmul_batch(packed, packed, 24)
            dense = np.stack([cube_matmul(dense[0], dense[0])])
            assert np.array_equal(packed, pack_bool_rows(dense))


class TestPackedPipeline:
    @settings(max_examples=8, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_matches_unpacked_pipeline_exactly(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.choice([8, 27, 64]))
        density = float(rng.choice([0.02, 0.2, 0.8]))
        s = (rng.random((n, n)) < density).astype(np.int64)
        t = (rng.random((n, n)) < density).astype(np.int64)
        ref_clique = CongestedClique(n)
        ref = semiring_matmul(ref_clique, s, t, BOOLEAN)
        packed_clique = CongestedClique(n)
        pp = boolean_matmul_packed(
            packed_clique, pack_bool_matrix(s, n), pack_bool_matrix(t, n)
        )
        assert np.array_equal(unpack_bool_matrix(pp, n), ref)
        assert np.array_equal(pp, pack_bool_matrix(ref, n))
        assert ref_clique.rounds == packed_clique.rounds
        assert _phases(ref_clique) == _phases(packed_clique)

    def test_matrix_pack_roundtrip_and_shapes(self):
        rng = np.random.default_rng(2)
        n = 27
        m = (rng.random((n, n)) < 0.3).astype(np.int64)
        assert np.array_equal(unpack_bool_matrix(pack_bool_matrix(m, n), n), m)
        with pytest.raises(ValueError):
            pack_bool_matrix(m[:-1], n)
        with pytest.raises(ValueError):
            unpack_bool_matrix(np.zeros((n, 3, 99), dtype=np.int64), n)

    def test_rejects_misshapen_operands(self):
        clique = CongestedClique(8)
        good = pack_bool_matrix(np.eye(8, dtype=np.int64), 8)
        with pytest.raises(ValueError):
            boolean_matmul_packed(clique, good[:, :1], good)


# --------------------------------------------------------------------- #
# Persistent packed closures through the session
# --------------------------------------------------------------------- #


def _closure_pair(n, matrix, *, steps=None):
    with open_session(n, "semiring", BOOLEAN) as packed:
        pc = packed.closure(matrix, steps=steps)
        packed_rounds = packed.rounds
        packed_phases = _phases(packed.clique)
    with open_session(n, "semiring", BOOLEAN) as plain:
        uc = per_product_boolean_closure(plain, matrix, steps=steps)
        plain_rounds = plain.rounds
        plain_phases = _phases(plain.clique)
    return pc, uc, (packed_rounds, packed_phases), (plain_rounds, plain_phases)


class TestPackedClosure:
    @settings(max_examples=6, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_matches_unpacked_closure_and_reference(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.choice([8, 27]))
        density = float(rng.choice([0.02, 0.1, 0.5]))
        a = (rng.random((n, n)) < density).astype(np.int64)
        pc, uc, (pr, pp), (ur, up) = _closure_pair(n, a)
        assert np.array_equal(pc, uc)
        assert pr == ur and pp == up

    def test_large_size_straddles_dispatch_thresholds(self):
        """n=64 closures put q^2 = 256-bit pieces through the packed kernel
        (above the byte-chunk boundary) -- values and meters still match."""
        rng = np.random.default_rng(23)
        a = (rng.random((64, 64)) < 0.05).astype(np.int64)
        pc, uc, (pr, pp), (ur, up) = _closure_pair(64, a)
        assert np.array_equal(pc, uc)
        assert pr == ur and pp == up

    def test_closure_reaches_transitive_closure(self):
        rng = np.random.default_rng(4)
        n = 27
        a = (rng.random((n, n)) < 0.08).astype(np.int64)
        with open_session(n, "semiring", BOOLEAN) as session:
            closed = session.closure(a)
        reach = a.astype(bool)
        for _ in range(n):
            reach = reach | (reach @ reach)
        assert np.array_equal(closed, reach.astype(np.int64))

    def test_nonbinary_seed_thresholded_like_unpacked(self):
        rng = np.random.default_rng(6)
        n = 8
        a = rng.integers(0, 5, (n, n), dtype=np.int64)
        pc, uc, (pr, pp), (ur, up) = _closure_pair(n, a)
        assert np.array_equal(pc, uc)
        assert pr == ur and pp == up

    def test_zero_steps_returns_seed_unchanged(self):
        a = np.zeros((8, 8), dtype=np.int64)
        a[0, 1] = 5
        with open_session(8, "semiring", BOOLEAN) as session:
            out = session.closure(a, steps=0)
        assert np.array_equal(out, a)

    @pytest.mark.parametrize("threads", [2, 3])
    def test_thread_counts(self, threads):
        rng = np.random.default_rng(10 + threads)
        n = 8
        a = (rng.random((n, n)) < 0.3).astype(np.int64)
        with open_session(n, "semiring", BOOLEAN, threads=threads) as session:
            assert session.executor.threads == threads
            got = session.closure(a)
            got_rounds = session.rounds
            got_phases = _phases(session.clique)
        with open_session(n, "semiring", BOOLEAN) as session:
            ref = session.closure(a)
            assert np.array_equal(got, ref)
            assert got_rounds == session.rounds
            assert got_phases == _phases(session.clique)

    def test_robust_collectives_on_packed_closure(self):
        """--faults layered on top: the packed closure through Reed-Solomon
        coded collectives equals the fault-free oracle, packed and
        unpacked alike."""
        from repro.faults import FaultPlan

        rng = np.random.default_rng(31)
        n = 8
        a = (rng.random((n, n)) < 0.3).astype(np.int64)
        plan = FaultPlan(t=1, seed=5, kind="flip")
        robust = make_clique(n, "semiring", fault_plan=plan, fault_tolerance=1)
        with EngineSession(robust, "semiring", BOOLEAN) as session:
            got = session.closure(a)
            assert robust.faults_injected > 0
        with open_session(n, "semiring", BOOLEAN) as session:
            ref = session.closure(a)
        with open_session(n, "semiring", BOOLEAN) as session:
            unpacked_ref = per_product_boolean_closure(session, a)
        assert np.array_equal(got, ref)
        assert np.array_equal(got, unpacked_ref)


# --------------------------------------------------------------------- #
# Deterministic lifecycle
# --------------------------------------------------------------------- #


class TestSessionLifecycle:
    def test_context_manager_releases_arena(self):
        with open_session(8, "semiring", BOOLEAN, threads=2) as session:
            a = (np.random.default_rng(0).random((8, 8)) < 0.4).astype(np.int64)
            session.closure(a)
            assert len(session.arena) > 0
        assert len(session.arena) == 0 and session.arena.nbytes() == 0

    def test_close_is_idempotent_and_meter_survives(self):
        session = open_session(8, "semiring", BOOLEAN)
        a = np.eye(8, dtype=np.int64)
        session.closure(a, steps=1)
        rounds = session.rounds
        session.close()
        session.close()
        assert session.rounds == rounds  # meter still readable

    def test_arena_release_allows_reuse(self):
        from repro.clique.arena import ExchangeArena

        arena = ExchangeArena()
        buf = arena.buffer("x", (4, 4))
        buf[:] = 3
        arena.release()
        assert len(arena) == 0
        fresh = arena.buffer("x", (4, 4))
        assert not fresh.any()  # re-zeroed after release

    def test_executor_threads(self):
        assert Executor().threads == 1
        assert Executor(np.int64(2)).threads == 2
        assert CongestedClique(8, threads=3).executor.threads == 3

    @pytest.mark.parametrize("threads", [0, -1, 1.5, 2.0, "2", None])
    def test_thread_count_must_be_an_integer_of_at_least_one(self, threads):
        """Every way in refuses a bad count by name before any work runs."""
        for build in (
            Executor,
            lambda t: CongestedClique(8, threads=t),
            lambda t: make_clique(8, "semiring", threads=t),
            lambda t: open_session(8, "semiring", BOOLEAN, threads=t),
        ):
            with pytest.raises(ValueError, match="threads"):
                build(threads)

    @pytest.mark.parametrize("tolerance", [None, 1], ids=["faulty", "coded"])
    def test_fault_cliques_take_the_thread_count(self, tolerance):
        """The unprotected and coded cliques build the same executor, and
        a 2-thread closure returns the 1-thread values and rounds."""
        from repro.faults import FaultPlan

        a = (np.random.default_rng(2).random((8, 8)) < 0.3).astype(np.int64)
        runs = []
        for threads in (1, 2):
            clique = make_clique(
                8,
                "semiring",
                threads=threads,
                fault_plan=FaultPlan(t=1, seed=5, kind="flip"),
                fault_tolerance=tolerance,
            )
            assert clique.executor.threads == threads
            with EngineSession(clique, "semiring", BOOLEAN) as session:
                runs.append((session.closure(a), session.rounds))
        assert np.array_equal(runs[0][0], runs[1][0])
        assert runs[0][1] == runs[1][1]
        with pytest.raises(ValueError, match="threads"):
            make_clique(
                8,
                "semiring",
                threads=0,
                fault_plan=FaultPlan(t=1, seed=5, kind="flip"),
                fault_tolerance=tolerance,
            )

    def test_open_session_rejects_threads_with_explicit_clique(self):
        clique = CongestedClique(8)
        with pytest.raises(ValueError, match="threads"):
            open_session(8, "semiring", BOOLEAN, clique=clique, threads=2)
