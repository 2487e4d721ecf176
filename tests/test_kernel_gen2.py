"""Kernel generation 2: packed Boolean blocks, packed max-min witnesses,
and arena-backed exchanges.

Every fast path introduced by the second kernel wave keeps an oracle
counterpart, and these tests pin them bit-identical:

* the ``uint64`` bit-packed Boolean kernel against the seed's cube kernel
  and the ``float32`` GEMM tile (forced by patching the dispatch floor),
  across densities and across the size-heuristic crossover boundary;
* the packed max-min witness kernel against the column walk and the cube
  kernel (values *and* tie-breaks), plus an end-to-end bottleneck
  routing-table regression;
* the planned-delivery exchange (``route_array_take``) and the per-session
  :class:`~repro.clique.arena.ExchangeArena` against the sort-based
  delivery: same contents, same rounds, same meter entries, with buffer
  reuse across repeated squarings.
"""

from __future__ import annotations

import numpy as np
import pytest
from closure_replay import full_schedule, stopped_phases
from hypothesis import given, settings
from hypothesis import strategies as st
from kernel_reference import (
    boolean_gemm,
    column_walk,
    cube_matmul,
    cube_matmul_with_witness,
    fold_with_witness,
)

from repro.algebra.semirings import BOOLEAN, MAX_MIN, MIN_PLUS
from repro.clique.arena import ExchangeArena
from repro.clique.model import CongestedClique
from repro.constants import INF
from repro.distances import (
    apsp_bottleneck,
    bottleneck_reference,
    validate_bottleneck_routing,
)
from repro.errors import CliqueModelError
from repro.graphs import (
    apsp_reference,
    random_weighted_digraph,
    random_weighted_graph,
)
from repro.matmul.semiring3d import cube_plan, semiring_matmul
from tests.conftest import per_product_boolean_closure


# --------------------------------------------------------------------- #
# Bit-packed Boolean kernel
# --------------------------------------------------------------------- #


def _packed(x, y):
    """The bit-packed Boolean kernel on one block, whatever its size."""
    return BOOLEAN.packed_matmul_batch(np.asarray(x)[None], np.asarray(y)[None])[0]


class TestPackedBoolean:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_matches_cube_and_gemm_across_densities(self, seed):
        rng = np.random.default_rng(seed)
        m, k, n = (int(rng.integers(1, 40)) for _ in range(3))
        density = float(rng.choice([0.0, 0.01, 0.1, 0.5, 0.9, 1.0]))
        x = (rng.random((m, k)) < density).astype(np.int64)
        y = (rng.random((k, n)) < density).astype(np.int64)
        packed = _packed(x, y)
        assert np.array_equal(packed, cube_matmul(x, y))
        assert np.array_equal(packed, boolean_gemm(x, y))
        assert np.array_equal(packed, BOOLEAN.matmul(x, y))

    @pytest.mark.parametrize("dim", [255, 256, 257])
    @pytest.mark.parametrize("density", [0.0, 0.02, 0.5])
    def test_heuristic_crossover_boundary(self, dim, density):
        """Cube sizes straddling the work floor agree on both sides of the
        dispatch (the heuristic may change the kernel, never the values)."""
        rng = np.random.default_rng(dim * 1000 + int(density * 100))
        x = (rng.random((dim, dim)) < density).astype(np.int64)
        y = (rng.random((dim, dim)) < density).astype(np.int64)
        assert BOOLEAN._use_packed(dim, dim, dim) == (
            dim**3 >= BOOLEAN.PACKED_MIN_WORK
        )
        dispatched = BOOLEAN.matmul(x, y)
        assert np.array_equal(dispatched, boolean_gemm(x, y))
        assert np.array_equal(dispatched, _packed(x, y))

    def test_work_based_dispatch_crossover(self):
        """The crossover, pinned: total work decides, not the smallest dim.

        Skinny-but-huge blocks (small ``m``, huge ``k``/``n``) clear the
        work floor and take the Four Russians kernel -- the shapes the old
        ``min(m, k, n) >= 256`` floor wrongly kept on the GEMM tile -- while
        the small per-node blocks the engines batch stay on the GEMM path.
        """
        # Skinny-but-huge: old min-dim floor said GEMM, work floor says packed.
        assert BOOLEAN._use_packed(64, 4096, 4096)
        assert BOOLEAN._use_packed(32, 2048, 4096)
        # Cube shapes: same verdicts as the old 256 floor.
        assert BOOLEAN._use_packed(256, 256, 256)
        assert not BOOLEAN._use_packed(255, 255, 255)
        # Engine-batch blocks (64^3 work) stay on the measured-faster GEMM.
        assert not BOOLEAN._use_packed(64, 64, 64)
        # Pack-width floors: degenerate trailing/inner dims never pack,
        # whatever the work.
        assert not BOOLEAN._use_packed(10**6, 10**6, 63)
        assert not BOOLEAN._use_packed(10**6, 7, 10**6)

    def test_skinny_dispatch_values_exact(self):
        """A skinny shape past the work floor: dispatched == GEMM == cube."""
        rng = np.random.default_rng(11)
        m, k, n = 5, 1024, 4096  # m*k*n just above 256**3
        assert BOOLEAN._use_packed(m, k, n)
        x = (rng.random((m, k)) < 0.2).astype(np.int64)
        y = (rng.random((k, n)) < 0.2).astype(np.int64)
        dispatched = BOOLEAN.matmul(x, y)
        assert np.array_equal(dispatched, boolean_gemm(x, y))

    def test_gemm_tile_remainder_above_bool_tile(self):
        """An inner dimension above one GEMM tile (1,024) with a remainder:
        the second, partial BLAS tile must OR in exactly."""
        rng = np.random.default_rng(13)
        m, k, n = 6, BOOLEAN.BOOL_TILE + 77, 40
        x = (rng.random((m, k)) < 0.002).astype(np.int64)
        y = (rng.random((k, n)) < 0.002).astype(np.int64)
        # Some products are witnessed only past the first tile.
        x[:, BOOLEAN.BOOL_TILE + 5] = 1
        y[BOOLEAN.BOOL_TILE + 5, ::3] = 1
        assert not BOOLEAN._use_packed(m, k, n)
        want = cube_matmul(x, y)
        assert np.array_equal(BOOLEAN.matmul(x, y), want)
        assert np.array_equal(_packed(x, y), want)

    def test_nonsquare_and_word_boundaries(self):
        """Shapes around the 8-bit chunk and byte-packing boundaries."""
        rng = np.random.default_rng(7)
        for m, k, n in [(1, 1, 1), (3, 8, 9), (5, 9, 8), (64, 65, 63),
                        (17, 128, 2), (2, 7, 300)]:
            x = (rng.random((m, k)) < 0.3).astype(np.int64)
            y = (rng.random((k, n)) < 0.3).astype(np.int64)
            assert np.array_equal(_packed(x, y), cube_matmul(x, y)), (m, k, n)

    def test_empty_dimensions(self):
        zero = np.zeros((3, 0), dtype=np.int64)
        out = _packed(zero, np.zeros((0, 4), dtype=np.int64))
        assert out.shape == (3, 4) and not out.any()

    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_batch_matches_per_block(self, seed):
        rng = np.random.default_rng(seed)
        batch = int(rng.integers(1, 6))
        m, k, n = (int(rng.integers(1, 30)) for _ in range(3))
        x = (rng.random((batch, m, k)) < 0.2).astype(np.int64)
        y = (rng.random((batch, k, n)) < 0.2).astype(np.int64)
        got = BOOLEAN.packed_matmul_batch(x, y)
        want = np.stack([cube_matmul(x[b], y[b]) for b in range(batch)])
        assert np.array_equal(got, want)
        assert np.array_equal(BOOLEAN.matmul_batch(x, y), want)

    def test_nonbinary_inputs_thresholded(self):
        """Like the other kernels, any positive entry counts as 1."""
        x = np.array([[5, 0, -2], [0, 3, 0]], dtype=np.int64)
        y = np.array([[1, 0], [0, 7], [2, 0]], dtype=np.int64)
        assert np.array_equal(_packed(x, y), cube_matmul(x, y))


class TestPersistentPackedClosure:
    """Kernel generation 3 rides on the gen-2 packed kernel: closures kept
    bit-packed across squarings must be invisible next to the per-product
    packing path and the seed cube oracle."""

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_packed_closure_matches_unpacked_and_oracle(self, seed):
        from repro.engine import open_session

        rng = np.random.default_rng(seed)
        n = int(rng.choice([8, 27]))
        density = float(rng.choice([0.03, 0.15, 0.6]))
        a = (rng.random((n, n)) < density).astype(np.int64)
        with open_session(n, "semiring", BOOLEAN) as packed:
            pc = packed.closure(a)
            packed_rounds = packed.rounds
            packed_phases = list(packed.meter.phases)
        with open_session(n, "semiring", BOOLEAN) as plain:
            uc = per_product_boolean_closure(plain, a)
            assert packed_rounds == plain.rounds
            assert packed_phases == plain.meter.phases
        assert np.array_equal(pc, uc)
        # Seed oracle: dense Boolean repeated squaring with absorb.
        reach = a > 0
        for _ in range(max(1, int(np.ceil(np.log2(max(2, n)))))):
            reach = reach | (reach @ reach)
        assert np.array_equal(pc, reach.astype(np.int64))


# --------------------------------------------------------------------- #
# Packed max-min witness kernel
# --------------------------------------------------------------------- #


class TestPackedMaxMinWitness:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_matches_walk_and_cube(self, seed):
        rng = np.random.default_rng(seed)
        batch = int(rng.integers(1, 6))
        m, k, n = (int(rng.integers(1, 9)) for _ in range(3))
        hi = int(rng.choice([2, 50, 1 << 40]))
        x = rng.integers(-hi, hi + 1, (batch, m, k), dtype=np.int64)
        y = rng.integers(-hi, hi + 1, (batch, k, n), dtype=np.int64)
        for mat in (x, y):
            mat[rng.random(mat.shape) < 0.2] = INF
            mat[rng.random(mat.shape) < 0.2] = -INF
        p, w = MAX_MIN.matmul_batch_with_witness(x, y)
        wp, ww = column_walk(MAX_MIN, x, y)
        assert np.array_equal(p, wp)
        assert np.array_equal(w, ww)
        for b in range(batch):
            cp, cw = cube_matmul_with_witness(MAX_MIN, x[b], y[b])
            assert np.array_equal(p[b], cp)
            assert np.array_equal(w[b], cw)

    def test_tie_break_lowest_index_under_max(self):
        """Equal bottlenecks must pick the smallest inner index (argmax
        convention) -- the reversed-tag encoding under the max."""
        x = np.array([[5, 5, 5]], dtype=np.int64)
        y = np.array([[7], [5], [9]], dtype=np.int64)
        p, w = MAX_MIN.matmul_with_witness(x, y)
        assert p[0, 0] == 5 and w[0, 0] == 0

    def test_all_neg_inf_and_all_pos_inf_conventions(self):
        neg = np.full((2, 3), -INF, dtype=np.int64)
        p, w = MAX_MIN.matmul_with_witness(neg, np.full((3, 2), -INF, np.int64))
        assert np.all(p == -INF) and np.all(w == 0)
        pos = np.full((2, 3), INF, dtype=np.int64)
        p, w = MAX_MIN.matmul_with_witness(pos, np.full((3, 2), INF, np.int64))
        assert np.all(p == INF) and np.all(w == 0)

    def test_huge_entries_take_walk_fallback(self):
        big = 1 << 61
        x = np.array([[[big, -big]]], dtype=np.int64)
        y = np.array([[[big], [-big]]], dtype=np.int64)
        assert MAX_MIN._lanes(x, y, kbits=1) is None
        p, w = MAX_MIN.matmul_batch_with_witness(x, y)
        wp, ww = column_walk(MAX_MIN, x, y)
        assert np.array_equal(p, wp) and np.array_equal(w, ww)

    def test_empty_inner_dimension(self):
        x = np.zeros((1, 2, 0), dtype=np.int64)
        y = np.zeros((1, 0, 3), dtype=np.int64)
        p, w = MAX_MIN.matmul_batch_with_witness(x, y)
        assert np.all(p == -INF) and np.all(w == 0)


class TestBottleneckRoutingRegression:
    """End-to-end: the packed max-min kernel drives Corollary-6-style
    bottleneck routing tables through the engine session."""

    @settings(max_examples=5, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_routing_tables_realise_widest_paths(self, seed):
        g = random_weighted_digraph(14, 0.3, 25, seed=seed)
        result = apsp_bottleneck(g, with_routing_tables=True)
        assert np.array_equal(result.value, bottleneck_reference(g))
        assert validate_bottleneck_routing(
            g, result.value, result.extras["next_hop"]
        )

    def test_undirected_routing_on_cube_clique(self):
        g = random_weighted_graph(27, 0.25, 40, seed=3)
        result = apsp_bottleneck(g, with_routing_tables=True)
        assert np.array_equal(result.value, bottleneck_reference(g))
        assert validate_bottleneck_routing(
            g, result.value, result.extras["next_hop"]
        )


# --------------------------------------------------------------------- #
# Arena-backed exchanges
# --------------------------------------------------------------------- #


class TestExchangeArena:
    def test_buffer_identity_and_reallocation(self):
        arena = ExchangeArena()
        a = arena.buffer("x", (3, 4))
        assert not a.any()  # born zeroed
        a[:] = 7
        assert arena.buffer("x", (3, 4)) is a  # same key+shape: same buffer
        b = arena.buffer("x", (2, 2))  # shape change: fresh zeroed buffer
        assert b.shape == (2, 2) and not b.any()
        assert arena.buffer("y", (3, 4)) is not a
        assert len(arena) == 2 and arena.nbytes() > 0


class TestRouteArrayTake:
    def test_matches_route_array_contents_and_charges(self, rng):
        n = 8
        p = 3
        dests = rng.integers(0, n, (n, p), dtype=np.int64)
        blocks = rng.integers(-9, 10, (n, p, 4), dtype=np.int64)
        widths = np.full((n, p), 4, dtype=np.int64)
        ref_clique = CongestedClique(n)
        flat = ref_clique.route_array(
            dests, blocks, widths=widths, phase="ref", flat=True
        )
        # The planned gather reproducing the sorted delivery order.
        order = np.argsort(dests.reshape(-1), kind="stable")
        take_clique = CongestedClique(n)
        got = take_clique.route_array_take(
            dests, blocks, widths=widths, take=order, phase="ref"
        )
        assert np.array_equal(got, flat.blocks)
        assert ref_clique.rounds == take_clique.rounds
        ref_phase = ref_clique.meter.phases[0]
        take_phase = take_clique.meter.phases[0]
        assert ref_phase == take_phase

    def test_out_buffer_is_filled_and_returned(self, rng):
        n = 4
        dests = np.tile(np.arange(n, dtype=np.int64), (n, 1))
        blocks = rng.integers(0, 5, (n, n, 2), dtype=np.int64)
        out = np.empty((n * n, 2), dtype=np.int64)
        clique = CongestedClique(n)
        got = clique.route_array_take(
            dests,
            blocks,
            take=np.argsort(dests.reshape(-1), kind="stable"),
            out=out,
        )
        assert got is out

    def test_take_out_of_range_rejected(self, rng):
        n = 4
        dests = np.tile(np.arange(n, dtype=np.int64), (n, 1))
        blocks = rng.integers(0, 5, (n, n, 2), dtype=np.int64)
        clique = CongestedClique(n)
        with pytest.raises(CliqueModelError):
            clique.route_array_take(
                dests, blocks, take=np.array([0, n * n], dtype=np.int64)
            )

    def test_owners_enforce_receiver_locality(self, rng):
        """An in-range gather that reads another node's traffic is rejected
        when the caller ships the slot-owner vector."""
        n = 4
        dests = np.tile(np.arange(n, dtype=np.int64), (n, 1))
        blocks = rng.integers(0, 5, (n, n, 2), dtype=np.int64)
        order = np.argsort(dests.reshape(-1), kind="stable")
        owners = np.repeat(np.arange(n, dtype=np.int64), n)
        good = CongestedClique(n).route_array_take(
            dests, blocks, take=order, owners=owners
        )
        ref = CongestedClique(n).route_array(dests, blocks, flat=True)
        assert np.array_equal(good, ref.blocks)
        bad_take = order.copy()
        # Swap one piece across an inbox boundary: still in range, but the
        # slot owned by node 0 now reads a piece addressed to node 1.
        bad_take[0], bad_take[-1] = bad_take[-1], bad_take[0]
        with pytest.raises(CliqueModelError):
            CongestedClique(n).route_array_take(
                dests, blocks, take=bad_take, owners=owners
            )


    def test_out_overlapping_the_pieces_is_refused(self, rng):
        """The gather is unbuffered, so an ``out`` that shares memory with
        the pieces it reads is refused before anything is charged."""
        n = 4
        dests = np.tile(np.arange(n, dtype=np.int64), (n, 1))
        blocks = rng.integers(0, 5, (n, n, 2), dtype=np.int64)
        widths = np.full((n, n), 2, dtype=np.int64)
        take = np.argsort(dests.reshape(-1), kind="stable")
        clique = CongestedClique(n)
        with pytest.raises(CliqueModelError, match="out overlaps the delivered"):
            clique.route_array_take(
                dests, blocks, widths=widths, take=take,
                out=blocks.reshape(n * n, 2)[::-1],
            )
        assert clique.rounds == 0

    def test_planned_gather_writes_out_without_a_temporary(self):
        """One n = 64 step-1 gather into an arena ``out`` allocates less
        than ``out`` itself: NumPy's ``mode="raise"`` output buffering
        would add a temporary of ``out.nbytes``."""
        import tracemalloc

        n = 64
        plan = cube_plan(n)
        q2 = plan.q * plan.q
        pieces = np.random.default_rng(0).integers(
            0, 50, (n, 2 * q2, q2), dtype=np.int64
        )
        widths = np.full((n, 2 * q2), q2, dtype=np.int64)
        out = ExchangeArena().buffer("recv", (2 * n * q2, q2))
        clique = CongestedClique(n)

        def gather():
            return clique.route_array_take(
                plan.dests1, pieces, widths=widths, take=plan.take_st,
                out=out, owners=plan.owners_st,
            )

        gather()  # warm the memoised schedules
        tracemalloc.start()
        try:
            gather()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < out.nbytes, (peak, out.nbytes)
        assert np.array_equal(out, pieces.reshape(-1, q2)[plan.take_st])


class TestArenaBackedEngine:
    def test_cube_plan_takes_are_permutations(self):
        plan = cube_plan(27)
        q2 = plan.q * plan.q
        assert sorted(plan.take_st.tolist()) == list(range(27 * 2 * q2))
        assert sorted(plan.take3.tolist()) == list(range(27 * q2))

    @settings(max_examples=8, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_arena_reuse_is_invisible(self, seed):
        """Repeated squarings through one arena == fresh arenas == PR 3
        behaviour: same values, witnesses, rounds and meter entries."""
        rng = np.random.default_rng(seed)
        n = 27
        d = rng.integers(0, 100, (n, n), dtype=np.int64)
        d[rng.random((n, n)) < 0.3] = INF
        np.fill_diagonal(d, 0)
        shared = ExchangeArena()
        shared_clique = CongestedClique(n)
        fresh_clique = CongestedClique(n)
        cur_shared, cur_fresh = d, d
        for step in range(3):
            ps, ws = semiring_matmul(
                shared_clique, cur_shared, cur_shared, MIN_PLUS,
                with_witnesses=True, phase=f"sq{step}", arena=shared,
            )
            pf, wf = semiring_matmul(
                fresh_clique, cur_fresh, cur_fresh, MIN_PLUS,
                with_witnesses=True, phase=f"sq{step}", arena=None,
            )
            assert np.array_equal(ps, pf), step
            assert np.array_equal(ws, wf), step
            cur_shared, cur_fresh = ps, pf
        assert shared_clique.rounds == fresh_clique.rounds
        assert shared_clique.meter.phases == fresh_clique.meter.phases

    def test_results_do_not_alias_arena_buffers(self):
        """Products must return fresh arrays: a later product through the
        same arena may not mutate an earlier result."""
        rng = np.random.default_rng(11)
        n = 27
        a = rng.integers(0, 50, (n, n), dtype=np.int64)
        b = rng.integers(0, 50, (n, n), dtype=np.int64)
        arena = ExchangeArena()
        clique = CongestedClique(n)
        first = semiring_matmul(clique, a, a, MIN_PLUS, arena=arena)
        snapshot = first.copy()
        semiring_matmul(clique, b, b, MIN_PLUS, arena=arena)
        assert np.array_equal(first, snapshot)

    @pytest.mark.parametrize("n", [27, 64, 512])
    def test_witnessed_product_holds_two_buffers(self, n):
        """A witnessed squaring keeps one send and one receive buffer of
        ``n * 2q^2 * q^2`` words each, plus the step-1 widths."""
        from repro.engine import open_session

        q2 = round(n ** (1 / 3)) ** 2
        rng = np.random.default_rng(n)
        d = rng.integers(0, 50, (n, n), dtype=np.int64)
        d[rng.random((n, n)) < 0.5] = INF
        with open_session(n, "semiring", MIN_PLUS) as session:
            session.square(d, with_witnesses=True)
            assert session.arena.nbytes() == 2 * n * 2 * q2 * q2 * 8 + n * 2 * q2 * 8

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(min_value=0, max_value=10**6),
        st.sampled_from([8, 27, 64]),
        st.sampled_from(["min-plus", "max-min"]),
    )
    def test_step4_matches_the_left_fold(self, seed, n, name):
        """Step 4's one reduction returns the values and witnesses of the
        strict-improvement left fold over the q partial products, on
        tie-heavy operands (entries 0..3, a few infinities)."""
        semiring = MIN_PLUS if name == "min-plus" else MAX_MIN
        rng = np.random.default_rng(seed)
        s = rng.integers(0, 4, (n, n), dtype=np.int64)
        t = rng.integers(0, 4, (n, n), dtype=np.int64)
        s[rng.random((n, n)) < 0.1] = INF
        t[rng.random((n, n)) < 0.1] = INF if semiring is MIN_PLUS else -INF
        q2 = cube_plan(n).q ** 2
        # Partial product w2 ranges over the inner indices of block w2.
        parts = [
            cube_matmul_with_witness(
                semiring, s[:, w2 : w2 + q2], t[w2 : w2 + q2]
            )
            for w2 in range(0, n, q2)
        ]
        want, want_w = fold_with_witness(
            semiring,
            np.stack([v for v, _ in parts], axis=1),
            np.stack([w + i * q2 for i, (_, w) in enumerate(parts)], axis=1),
        )
        got, got_w = semiring_matmul(
            CongestedClique(n), s, t, semiring, with_witnesses=True,
            arena=ExchangeArena(),
        )
        assert np.array_equal(got, want)
        assert np.array_equal(got_w, want_w)

    @pytest.mark.parametrize("name", ["min-plus", "max-min"])
    @pytest.mark.parametrize(
        "protection", ["unprotected-flip", "unprotected-drop", "coded-1", "coded-2"]
    )
    def test_session_arena_matches_fresh_arenas_under_faults(
        self, protection, name
    ):
        """Witnessed products on faulty cliques return the same values,
        meters and errors through a session arena as with ``arena=None``."""
        from repro.engine import make_clique, open_session
        from repro.errors import ReproError
        from repro.faults import FaultPlan

        semiring = MIN_PLUS if name == "min-plus" else MAX_MIN
        n = 27
        kind, _, t = protection.partition("-")

        def clique():
            if kind == "coded":
                return make_clique(
                    n, "semiring",
                    fault_plan=FaultPlan(t=int(t), seed=3, kind="byzantine"),
                    fault_tolerance=int(t),
                )
            return make_clique(
                n, "semiring", fault_plan=FaultPlan(t=1, seed=3, kind=t)
            )

        rng = np.random.default_rng(7)
        d = rng.integers(0, 4, (n, n), dtype=np.int64)
        d[rng.random((n, n)) < 0.3] = semiring.zero_value
        session = open_session(n, "semiring", semiring, clique=clique())
        fresh = clique()
        outcomes = []
        for run in (
            lambda x, i: session.square(x, with_witnesses=True, phase=f"sq{i}"),
            lambda x, i: semiring_matmul(
                fresh, x, x, semiring, with_witnesses=True, phase=f"sq{i}",
                arena=None,
            ),
        ):
            cur, results = d, []
            try:
                for i in range(2):
                    cur, wit = run(cur, i)
                    results.append((cur.tolist(), wit.tolist()))
            except ReproError as exc:
                results.append((type(exc).__name__, str(exc)))
            outcomes.append(results)
        assert outcomes[0] == outcomes[1]
        assert session.clique.meter.phases == fresh.meter.phases
        if kind == "coded":
            assert session.clique.abstract_meter.phases == fresh.abstract_meter.phases
        assert session.clique.faults_injected == fresh.faults_injected > 0

    def test_bilinear_arena_reuse_is_invisible(self):
        rng = np.random.default_rng(5)
        n = 16
        from repro.engine import EngineSession

        x = rng.integers(-9, 10, (n, n), dtype=np.int64)
        session_clique = CongestedClique(n)
        fresh_clique = CongestedClique(n)
        session = EngineSession(session_clique, "bilinear")
        cur = x
        for step in range(3):
            from repro.matmul.bilinear_clique import bilinear_matmul

            want = bilinear_matmul(
                fresh_clique, cur, cur, session.algorithm,
                phase=f"session/sq{step}",
            )
            got = session.square(cur, phase=f"session/sq{step}")
            assert np.array_equal(got, want), step
            assert np.array_equal(got, cur @ cur), step
            cur = got
        assert session_clique.rounds == fresh_clique.rounds
        assert session_clique.meter.phases == fresh_clique.meter.phases


# --------------------------------------------------------------------- #
# Resident min-plus closures (the serving layer's build side)
# --------------------------------------------------------------------- #


class TestResidentMinPlus:
    """Gen-3's persistence extended to the selection semirings: a closure
    kept session-resident between squarings (the state the serve/delta
    layer maintains) is the one witnessed closure loop.  It must equal the
    centralised oracles, route along best paths, and bill what the full
    schedule derives: the full schedule's pinned phase costs were recorded
    from the caller-matrix witness loop the resident one replaced."""

    @staticmethod
    def _seed(session, graph):
        """The apsp_exact seed: padded weights + edge-to-column routing."""
        from repro.runtime import pad_matrix

        dist = pad_matrix(graph.weight_matrix(), session.n, fill=INF)
        hops = np.full((session.n, session.n), -1, dtype=np.int64)
        rows, cols = np.nonzero(dist < INF)
        hops[rows, cols] = cols
        np.fill_diagonal(hops, np.arange(session.n))
        return dist, hops

    @staticmethod
    def _phase_costs(session):
        return [(p.phase, p.rounds, p.words) for p in session.meter.phases]

    @staticmethod
    def _expected_costs(squarings):
        """Per squaring (distribute rounds/words, recombine rounds/words)."""
        costs = []
        for i, (dr, dw, rr, rw) in enumerate(squarings):
            costs.append((f"closure/sq{i}/step1-distribute", dr, dw))
            costs.append((f"closure/sq{i}/step3-recombine", rr, rw))
        return costs

    #: (n, edge probability, graph seed) -> (rounds, per-squaring costs) of
    #: the full schedule, and the rounds of the loop that stops.
    PINNED = {
        (8, 0.1, 0): (
            132,
            [(28, 832, 16, 468), (28, 760, 16, 432), (28, 604, 16, 372)],
            134,
        ),
        (8, 0.7, 1): (
            66,
            [(28, 748, 10, 216), (8, 208, 6, 192), (8, 208, 6, 192)],
            68,
        ),
        (19, 0.3, 2): (
            370,
            [
                (46, 16200, 28, 9693),
                (46, 14283, 28, 7506),
                (46, 10503, 28, 6993),
                (46, 10503, 28, 6993),
                (46, 10503, 28, 6993),
            ],
            300,
        ),
        (19, 0.7, 3): (
            370,
            [
                (46, 15930, 28, 7965),
                (46, 10503, 28, 6993),
                (46, 10503, 28, 6993),
                (46, 10503, 28, 6993),
                (46, 10503, 28, 6993),
            ],
            300,
        ),
    }

    @pytest.mark.parametrize("case", sorted(PINNED), ids=str)
    def test_resident_closure_matches_reference_and_pinned_bill(self, case):
        from repro.engine import open_session
        from repro.graphs import validate_routing_table

        n, density, seed = case
        full_rounds, squarings, rounds = self.PINNED[case]
        graph = random_weighted_graph(n, density, max_weight=40, seed=seed)
        with open_session(n, "semiring", MIN_PLUS) as full, full_schedule() as loops:
            full.seed_resident(self._seed(full, graph)[0])
            full.resident_closure()
            assert full.rounds == full_rounds
            assert self._phase_costs(full) == self._expected_costs(squarings)
        with open_session(n, "semiring", MIN_PLUS) as session:
            seed_dist, seed_hops = self._seed(session, graph)
            state = session.seed_resident(seed_dist)
            # The default routing seed is exactly the apsp_exact seed.
            assert np.array_equal(state.next_hop, seed_hops)
            got = session.resident_closure()
            assert got is state.dist
            assert session.meter.phases == stopped_phases(full.meter, loops)
            assert session.rounds == rounds
            dist = got[:n, :n]
            assert np.array_equal(dist, apsp_reference(graph))
            assert validate_routing_table(graph, dist, state.routing_table(n))

    def test_resident_square_reaches_fixed_point(self):
        from repro.engine import open_session

        graph = random_weighted_graph(14, 0.4, max_weight=20, seed=5)
        with open_session(14, "naive", MIN_PLUS) as session:
            dist, _ = self._seed(session, graph)
            session.seed_resident(dist)
            improved = [session.resident_square() for _ in range(6)]
            # Progress first, then a stable fixed point (n=14 closes in 4).
            assert improved[0] is True
            assert improved[-1] is False
            assert session.resident.squarings == 6
            before = session.resident.dist.copy()
            assert not session.resident_square()
            assert np.array_equal(session.resident.dist, before)

    def test_max_min_resident_closure_matches_reference_and_pinned_bill(self):
        """The resident path is semiring-generic: bottleneck works too."""
        from repro.engine import open_session
        from repro.graphs import Graph

        rng = np.random.default_rng(9)
        n = 8  # perfect cube: the session matrices stay n x n
        a = rng.integers(0, 30, (n, n), dtype=np.int64)
        np.fill_diagonal(a, INF)
        graph = Graph(
            n, 1 - np.eye(n, dtype=np.int64), directed=True, weights=a
        )
        with open_session(n, "semiring", MAX_MIN) as full, full_schedule() as loops:
            full.seed_resident(a)
            full.resident_closure()
            assert full.rounds == 120
            assert self._phase_costs(full) == self._expected_costs(
                [(24, 520, 16, 264)] * 3
            )
        with open_session(n, "semiring", MAX_MIN) as session:
            state = session.seed_resident(a)
            got = session.resident_closure()
            assert session.meter.phases == stopped_phases(full.meter, loops)
            assert session.rounds == 122
        assert np.array_equal(got, bottleneck_reference(graph))
        assert validate_bottleneck_routing(graph, got, state.routing_table(n))

    def test_resident_binding_rules(self):
        from repro.engine import EngineBindingError, EngineSession, open_session

        with open_session(4, "bilinear") as ring:
            with pytest.raises(EngineBindingError):
                ring.seed_resident(np.zeros((ring.n, ring.n), dtype=np.int64))
        boolean = EngineSession(CongestedClique(8), "semiring", BOOLEAN)
        zeros = np.zeros((8, 8), dtype=np.int64)
        with pytest.raises(EngineBindingError):
            boolean.seed_resident(zeros)  # no witnesses, no routing tables

    def test_resident_state_errors(self):
        from repro.engine import open_session

        with open_session(6, "naive", MIN_PLUS) as session:
            with pytest.raises(RuntimeError, match="seed_resident"):
                session.resident_square()
            with pytest.raises(RuntimeError, match="seed_resident"):
                session.resident_closure()
            with pytest.raises(ValueError, match="6 x 6"):
                session.seed_resident(np.zeros((3, 3), dtype=np.int64))
            state = session.seed_resident(np.zeros((6, 6), dtype=np.int64))
            with pytest.raises(ValueError, match="next_hop"):
                session.seed_resident(
                    np.zeros((6, 6), dtype=np.int64),
                    next_hop=np.zeros((2, 2), dtype=np.int64),
                )
            assert session.resident is state
            session.drop_resident()
            assert session.resident is None
            session.drop_resident()  # idempotent
