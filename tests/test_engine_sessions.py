"""The engine-session layer: binding rules, cached plans, shared loops.

An :class:`~repro.engine.EngineSession` must (a) enforce Theorem 1's
algebra/engine compatibility at construction, (b) produce the same products
as the underlying engines it binds, (c) run the iterated-squaring loop
(`closure`) that every §3 consumer shares, and (d) reuse one cached
plan across all products of a clique size.
"""

from __future__ import annotations

import numpy as np
import pytest
from kernel_reference import cube_matmul_with_witness, poly_matmul

from repro.algebra.polynomial import POLYNOMIAL
from repro.algebra.semirings import BOOLEAN, MAX_MIN, MIN_PLUS, PLUS_TIMES
from repro.clique.model import CongestedClique
from repro.constants import INF
from repro.engine import (
    EngineBindingError,
    EngineSession,
    make_clique,
    open_session,
    required_clique_size,
)
from repro.errors import NegativeCycleError
from repro.matmul.bilinear_clique import bilinear_matmul, grid_plan
from repro.matmul.distance import RingDistanceSession
from repro.matmul.naive import broadcast_matmul
from repro.matmul.semiring3d import cube_plan, semiring_matmul


class TestBindingRules:
    def test_selection_semiring_rejects_bilinear(self):
        clique = CongestedClique(16)
        for semiring in (MIN_PLUS, MAX_MIN):
            with pytest.raises(EngineBindingError):
                EngineSession(clique, "bilinear", semiring)

    def test_ring_ops_reject_non_bilinear_engines(self):
        for method in ("semiring", "naive"):
            with pytest.raises(EngineBindingError):
                EngineSession(CongestedClique(27), method, POLYNOMIAL)

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="unknown matmul method"):
            EngineSession(CongestedClique(16), "quantum")

    def test_witnesses_need_a_selection_semiring(self):
        a = np.eye(16, dtype=np.int64)
        session = EngineSession(CongestedClique(16), "bilinear", BOOLEAN)
        with pytest.raises(EngineBindingError):
            session.multiply(a, a, with_witnesses=True)
        session = EngineSession(CongestedClique(27), "semiring", PLUS_TIMES)
        with pytest.raises(EngineBindingError):
            session.multiply(
                np.eye(27, dtype=np.int64), np.eye(27, dtype=np.int64),
                with_witnesses=True,
            )

    def test_ring_sessions_have_no_closure(self):
        session = EngineSession(CongestedClique(16), "bilinear", POLYNOMIAL)
        with pytest.raises(EngineBindingError):
            session.closure(np.zeros((16, 16, 1), dtype=np.int64))

    def test_polynomial_sessions_only_multiply(self):
        """Resident state and witnesses are refused; a product runs
        (checked against the per-block oracle)."""
        session = EngineSession(CongestedClique(16), "bilinear", POLYNOMIAL)
        x = np.ones((16, 16, 2), dtype=np.int64)
        with pytest.raises(EngineBindingError):
            session.seed_resident(x)
        with pytest.raises(EngineBindingError):
            session.multiply(x, x, with_witnesses=True)
        assert np.array_equal(session.multiply(x, x), poly_matmul(x, x))

    def test_algebra_must_be_a_semiring(self):
        for algebra in ("plus-times", None, object()):
            with pytest.raises(TypeError, match="must be a Semiring"):
                EngineSession(CongestedClique(16), "bilinear", algebra)

    def test_open_session_validates_threads(self):
        with pytest.raises(ValueError, match="threads"):
            open_session(10, "bilinear", threads=0)
        with pytest.raises(ValueError, match="threads"):
            open_session(10, "bilinear", clique=CongestedClique(16), threads=4)

    def test_shards_option_is_gone(self):
        with pytest.raises(TypeError):
            make_clique(16, "semiring", shards=2)
        with pytest.raises(TypeError):
            open_session(10, "bilinear", shards=2)

    def test_open_session_sizes_the_clique(self):
        for method in ("bilinear", "semiring", "naive"):
            session = open_session(10, method)
            assert session.n == required_clique_size(10, method)


class TestProductsMatchEngines:
    def test_integer_products_match_all_engines(self, rng):
        s = rng.integers(-9, 10, (16, 16))
        t = rng.integers(-9, 10, (16, 16))
        s27 = np.zeros((27, 27), dtype=np.int64)
        t27 = np.zeros((27, 27), dtype=np.int64)
        s27[:16, :16], t27[:16, :16] = s, t
        bil = EngineSession(CongestedClique(16), "bilinear")
        assert np.array_equal(bil.multiply(s, t), s @ t)
        sem = EngineSession(CongestedClique(27), "semiring")
        assert np.array_equal(
            sem.multiply(s27, t27),
            semiring_matmul(CongestedClique(27), s27, t27, PLUS_TIMES),
        )
        nai = EngineSession(CongestedClique(16), "naive")
        assert np.array_equal(
            nai.multiply(s, t),
            broadcast_matmul(CongestedClique(16), s, t, PLUS_TIMES),
        )

    def test_boolean_products_threshold_and_match(self, rng):
        a = (rng.random((16, 16)) < 0.4).astype(np.int64) * 7  # non-0/1 input
        b = (rng.random((16, 16)) < 0.4).astype(np.int64)
        expect = (((a > 0).astype(np.int64) @ b) > 0).astype(np.int64)
        for method, size in (("bilinear", 16), ("naive", 16), ("semiring", 27)):
            ap = np.zeros((size, size), dtype=np.int64)
            bp = np.zeros((size, size), dtype=np.int64)
            ap[:16, :16], bp[:16, :16] = a, b
            session = EngineSession(CongestedClique(size), method, BOOLEAN)
            assert np.array_equal(session.multiply(ap, bp)[:16, :16], expect)

    def test_witness_product_matches_engine(self, rng):
        d = rng.integers(0, 50, (27, 27))
        d[rng.random((27, 27)) < 0.3] = INF
        session = EngineSession(CongestedClique(27), "semiring", MIN_PLUS)
        got_p, got_w = session.multiply(d, d, with_witnesses=True)
        ref_p, ref_w = semiring_matmul(
            CongestedClique(27), d, d, MIN_PLUS, with_witnesses=True
        )
        assert np.array_equal(got_p, ref_p)
        assert np.array_equal(got_w, ref_w)

    def test_rounds_match_direct_engine_calls(self, rng):
        s = rng.integers(-9, 10, (16, 16))
        session = open_session(16, "bilinear")
        session.multiply(s, s)
        direct = CongestedClique(16)
        bilinear_matmul(direct, s, s)
        assert session.rounds == direct.rounds


class TestIteratedSquaring:
    def test_closure_reaches_transitive_closure(self):
        # Path 0 -> 1 -> 2 -> ... on the Boolean semiring.
        n = 16
        a = np.zeros((n, n), dtype=np.int64)
        a[np.arange(n - 1), np.arange(1, n)] = 1
        session = EngineSession(CongestedClique(n), "naive", BOOLEAN)
        closed = session.closure(a)
        expect = np.triu(np.ones((n, n), dtype=np.int64), k=1)
        assert np.array_equal(closed, expect)

    def test_boolean_closure_runs_on_the_ring_engine(self, rng):
        """A Boolean closure runs on the fast §2.2 engine (Corollary 2)."""
        a = rng.integers(0, 2, (16, 16))
        bilinear = EngineSession(CongestedClique(16), "bilinear", BOOLEAN)
        naive = EngineSession(CongestedClique(16), "naive", BOOLEAN)
        assert np.array_equal(bilinear.closure(a), naive.closure(a))


class TestOneWitnessedClosure:
    """Routing tables come only from the resident loop; the plain closure
    keeps no witness, hook or packing switch, and both loops refuse
    negative cycles by naming the squaring that exposed one."""

    def test_removed_closure_options_are_type_errors(self):
        session = EngineSession(CongestedClique(8), "semiring", MIN_PLUS)
        zeros = np.zeros((8, 8), dtype=np.int64)
        with pytest.raises(TypeError):
            session.closure(zeros, with_witnesses=True)
        with pytest.raises(TypeError):
            session.closure(zeros, on_step=lambda step, accum: None)
        with pytest.raises(TypeError):
            session.closure(zeros, absorb="matrix")
        session.seed_resident(zeros)
        with pytest.raises(TypeError):
            session.resident_closure(on_step=lambda step, accum: None)
        with pytest.raises(TypeError):
            open_session(8, "semiring", BOOLEAN, packed_closure=False)

    @staticmethod
    def _negative_eight_cycle():
        """A directed 8-cycle of unit edges, one set to -20 (total -13)."""
        w = np.full((8, 8), INF, dtype=np.int64)
        np.fill_diagonal(w, 0)
        for u in range(8):
            w[u, (u + 1) % 8] = 1
        w[7, 0] = -20
        return w

    def test_session_closures_refuse_negative_cycle(self):
        w = self._negative_eight_cycle()
        session = EngineSession(CongestedClique(8), "semiring", MIN_PLUS)
        with pytest.raises(NegativeCycleError, match="cyc/sq2"):
            session.closure(w, phase="cyc")
        session.seed_resident(w)
        with pytest.raises(NegativeCycleError, match="cyc/res2"):
            session.resident_closure(phase="cyc", step_label="res")

    def test_max_min_closures_never_refuse(self):
        """Nothing beats the INF self-capacity, so no cycle is refused."""
        rng = np.random.default_rng(3)
        cap = rng.integers(-5, 30, (8, 8), dtype=np.int64)
        np.fill_diagonal(cap, INF)
        session = EngineSession(CongestedClique(8), "semiring", MAX_MIN)
        plain = session.closure(cap)
        session.seed_resident(cap)
        resident = session.resident_closure()
        assert np.array_equal(plain, resident)
        assert (np.diagonal(resident) == INF).all()


class TestOperandDtypes:
    """Every session entry point takes integer or bool entries that fit
    int64 and refuses the rest by dtype, as the kernels do: a float is
    never truncated and a ``uint64`` never wrapped.  Boolean sessions keep
    Corollary 2's ``> 0`` threshold."""

    @staticmethod
    def _half_weight_path() -> np.ndarray:
        """The 8-node path of 1.5-weight edges: ``dist(0, 7) = 10.5``."""
        w = np.full((8, 8), float(INF))
        np.fill_diagonal(w, 0.0)
        for u in range(7):
            w[u, u + 1] = 1.5
        return w

    @staticmethod
    def _session() -> EngineSession:
        return EngineSession(CongestedClique(8), "semiring", MIN_PLUS)

    ENTRY_POINTS = {
        "multiply": lambda s, w: s.multiply(w, w),
        "closure": lambda s, w: s.closure(w),
        "seed_resident": lambda s, w: s.seed_resident(w),
        "next_hop": lambda s, w: s.seed_resident(
            np.zeros((8, 8), dtype=np.int64), next_hop=w
        ),
        "semiring_matmul": lambda s, w: semiring_matmul(s.clique, w, w, MIN_PLUS),
    }

    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_float_operand_is_refused(self, entry):
        with pytest.raises(ValueError, match="float64"):
            self.ENTRY_POINTS[entry](self._session(), self._half_weight_path())

    def test_uint64_operand_is_refused(self):
        w = np.zeros((8, 8), dtype=np.uint64)
        w[0, 1] = 2**63 + 5
        with pytest.raises(ValueError, match="uint64"):
            self._session().multiply(w, w)

    def test_boolean_sessions_threshold_floats(self):
        a = np.zeros((8, 8))
        a[0, 1] = a[1, 2] = 0.5
        got = EngineSession(CongestedClique(8), "semiring", BOOLEAN).multiply(a, a)
        assert got[0, 2] == 1 and got.sum() == 1


class TestPlanCaching:
    def test_cube_plan_memoised_across_sessions(self):
        before = cube_plan.cache_info().hits
        EngineSession(CongestedClique(27), "semiring", MIN_PLUS)
        EngineSession(CongestedClique(27), "semiring", MAX_MIN)
        assert cube_plan(27) is cube_plan(27)
        assert cube_plan.cache_info().hits > before

    def test_grid_plan_memoised_across_sessions(self):
        s1 = EngineSession(CongestedClique(49), "bilinear")
        s2 = EngineSession(CongestedClique(49), "bilinear")
        assert s1.algorithm.d == s2.algorithm.d
        assert grid_plan(49, s1.algorithm.d) is grid_plan(49, s2.algorithm.d)

    def test_cube_plan_static_decode_mask(self):
        plan = cube_plan(27)
        # Every node receives exactly q^2 S pieces and q^2 T pieces.
        assert plan.from_s.sum(axis=1).tolist() == [9] * 27
        assert plan.dests1.shape == (27, 18)


class TestRingDistanceSession:
    def test_lemma18_session_multiply_and_closure(self, rng):
        n = 16
        d = rng.integers(1, 5, (n, n))
        d[rng.random((n, n)) < 0.5] = INF
        np.fill_diagonal(d, 0)
        session = RingDistanceSession(CongestedClique(n), max_entry=8)
        product = session.multiply(d, d)
        # Oracle: capped min-plus product.
        capped = np.where(d <= 8, d, INF)
        expect = cube_matmul_with_witness(MIN_PLUS, capped, capped)[0]
        expect = np.where(expect <= 16, expect, INF)
        assert np.array_equal(np.where(product <= 16, product, INF), expect)

    def test_lemma18_session_rejects_witnesses(self):
        session = RingDistanceSession(CongestedClique(16), max_entry=4)
        with pytest.raises(EngineBindingError):
            session.multiply(
                np.zeros((16, 16), dtype=np.int64),
                np.zeros((16, 16), dtype=np.int64),
                with_witnesses=True,
            )
