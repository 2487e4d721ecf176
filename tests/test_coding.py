"""The shift-and-XOR Reed-Solomon coder against the table-gather oracle.

:mod:`repro.faults.coding` multiplies by powers of alpha on packed uint64
lanes, derives parity from data syndromes and rechecks corrections by
linearity; ``tests/coding_reference.py`` is the first implementation, which
did every product as a log/antilog gather.  The two must agree exactly:
the same stripes, the same decoded words and the same ``ok`` flags, on
every input -- in budget, beyond it, and on the aggregation collisions the
decoder's location step is defined by.
"""

from __future__ import annotations

import coding_reference as ref
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import FaultPlan, corrupt_pieces, decode_stripes, encode_stripes
from repro.faults.coding import (
    _alpha_pow,
    _gf_inv_matrix,
    _lanes_combine,
    _lanes_times_alpha_pow,
    _mul,
    _parity_matrix,
    _times_alpha_pow,
    stripe_plan,
)

KINDS = ["flip", "drop", "crash", "byzantine"]

#: Every GF(2^16) symbol once.
ALL_SYMBOLS = np.arange(1 << 16, dtype=np.uint16)


def table_product(x: np.ndarray, c: int) -> np.ndarray:
    """``x * c`` through the oracle's flattened product table."""
    return ref._MULT[ref._LOGZ[x] + ref._LOGZ[c]]


def random_pieces(rng: np.random.Generator, pieces: int, width: int) -> np.ndarray:
    return rng.integers(
        -(2**63), 2**63 - 1, (pieces, width), dtype=np.int64, endpoint=True
    )


def assert_same_decode(tampered, dropped, plan) -> tuple[np.ndarray, np.ndarray]:
    """Decode with both coders; words and ``ok`` flags must be identical."""
    words, ok = decode_stripes(tampered, dropped, plan)
    want_words, want_ok = ref.decode_stripes(tampered, dropped, plan)
    assert np.array_equal(ok, want_ok)
    assert np.array_equal(words, want_words)
    return words, ok


# --------------------------------------------------------------------- #
# Arithmetic, exhaustively
# --------------------------------------------------------------------- #


class TestFieldRules:
    @pytest.mark.parametrize("e", range(0, 17))
    def test_lane_alpha_powers_on_every_symbol(self, e):
        """Every step size (s = 1 .. 4) and chain the Horner sweeps use."""
        packed = ALL_SYMBOLS.copy().view(np.uint64)
        _lanes_times_alpha_pow(packed, e, np.empty_like(packed))
        assert np.array_equal(
            packed.view(np.uint16), table_product(ALL_SYMBOLS, _alpha_pow(e))
        )

    @pytest.mark.parametrize(
        "c", [0, 1, 2, 0x100B, 0x8000, 0xFFFF, 0x1234, 0xBEEF, _alpha_pow(700)]
    )
    def test_lane_constant_products_on_every_symbol(self, c):
        """The alpha-ladder constant product that applies the parity map."""
        (product,) = _lanes_combine(((c,),), [ALL_SYMBOLS.copy().view(np.uint64)])
        assert np.array_equal(product.view(np.uint16), table_product(ALL_SYMBOLS, c))

    @pytest.mark.parametrize("e", [0, 1, 7, 38, 1000, 65534, 65535, -1, -73])
    def test_gathered_alpha_powers_on_every_symbol(self, e):
        """The log/antilog rule the decoder keeps for pieces it fixes."""
        assert np.array_equal(
            _times_alpha_pow(ALL_SYMBOLS, e), table_product(ALL_SYMBOLS, _alpha_pow(e))
        )

    @pytest.mark.parametrize("t", range(1, 9))
    def test_vandermonde_inverse(self, t):
        d = 2 * t
        vand = [[_alpha_pow(u * r) for u in range(d)] for r in range(1, d + 1)]
        inv = _gf_inv_matrix(vand)

        def product(a, b):
            def entry(i, j):
                terms = [_mul(a[i][l], b[l][j]) for l in range(d)]
                return int(np.bitwise_xor.reduce(terms))

            return [[entry(i, j) for j in range(d)] for i in range(d)]

        identity = [[int(i == j) for j in range(d)] for i in range(d)]
        assert product(vand, inv) == identity
        # The parity map is V^-1 diag(alpha^(2t r)): V maps it back.
        scaled = [
            [_alpha_pow(d * (i + 1)) * (i == j) for j in range(d)] for i in range(d)
        ]
        assert product(vand, [list(row) for row in _parity_matrix(t)]) == scaled

    @pytest.mark.parametrize("t", range(1, 9))
    def test_parity_matches_generator_remainder(self, t):
        """Parity from data syndromes equals the generator-remainder parity."""
        rng = np.random.default_rng(t)
        plan = stripe_plan(40, 2 * t + 9, t)
        blocks = random_pieces(rng, 5, 40)
        assert np.array_equal(
            encode_stripes(blocks, plan), ref.encode_stripes(blocks, plan)
        )


# --------------------------------------------------------------------- #
# Encode and decode against the oracle
# --------------------------------------------------------------------- #


def _mixed_corruption(rng, stripes, plan, beyond: bool):
    """Errors plus erasures per piece: ``2e + f <= 2t``, or ``t + 1`` errors.

    Error values are arbitrary nonzero words; a dropped stripe sometimes
    keeps its garbage, which both decoders must ignore.
    """
    p, m = stripes.shape[0] // plan.m, plan.m
    tam = stripes.reshape(p, m, -1).copy()
    dropped = np.zeros((p, m), dtype=bool)
    t = plan.t
    for i in range(p):
        if beyond:
            errors, erasures = min(t + 1, m), 0
        else:
            errors = int(rng.integers(0, t + 1))
            erasures = int(rng.integers(0, 2 * t - 2 * errors + 1))
        erasures = min(erasures, m - errors)
        chosen = rng.choice(m, size=errors + erasures, replace=False)
        for j in chosen[:errors]:
            tam[i, j] ^= rng.integers(1, 2**62, tam.shape[2], dtype=np.int64)
        holes = chosen[errors:]
        dropped[i, holes] = True
        if rng.random() < 0.5:
            tam[i, holes] = 0
    return tam.reshape(p * m, -1), dropped.reshape(-1)


@st.composite
def coded_exchanges(draw):
    t = draw(st.sampled_from([1, 2, 3]))
    return dict(
        t=t,
        n=draw(st.integers(2 * t + 1, 64)),
        width=draw(st.integers(0, 300)),
        pieces=draw(st.integers(1, 8)),
        arm=draw(st.sampled_from(KINDS + ["mixed"])),
        beyond=draw(st.booleans()),
        seed=draw(st.integers(0, 2**32 - 1)),
    )


class TestOracleProperty:
    @settings(max_examples=150, deadline=None)
    @given(case=coded_exchanges())
    def test_stripes_words_and_flags_match_the_table_coder(self, case):
        t, n, width = case["t"], case["n"], case["width"]
        rng = np.random.default_rng(case["seed"])
        plan = stripe_plan(width, n, t)
        blocks = random_pieces(rng, case["pieces"], width)
        stripes = encode_stripes(blocks, plan)
        assert np.array_equal(stripes, ref.encode_stripes(blocks, plan))
        if case["arm"] == "mixed":
            tampered, dropped = _mixed_corruption(rng, stripes, plan, case["beyond"])
        else:
            adversary = FaultPlan(
                t=t + case["beyond"],
                seed=case["seed"],
                kind=case["arm"],
                crash_window=1,
            )
            tampered, _hit, dropped = corrupt_pieces(
                adversary, int(rng.integers(0, 100)), n, stripes, copies=plan.m
            )
        words, ok = assert_same_decode(tampered, dropped, plan)
        if not case["beyond"] and case["arm"] != "mixed":
            # (Errors on top of erasures are flagged by design.)
            assert ok.all()
            assert np.array_equal(words[:, :width], blocks)
        # Beyond budget: flagged or exact, never a certified wrong word.
        wrong = ~(words[:, :width] == blocks).all(axis=1)
        assert not (ok & wrong).any()

    @pytest.mark.parametrize("width,pieces", [(36, 15552), (72, 7776)])
    def test_real_216_node_shapes(self, width, pieces):
        """The coded-closure exchanges: one-word stripes, a Byzantine relay."""
        rng = np.random.default_rng(width)
        plan = stripe_plan(width, 216, 1)
        assert (plan.m, plan.stripe_words) == (width + 2, 1)
        blocks = random_pieces(rng, pieces, width)
        stripes = encode_stripes(blocks, plan)
        assert np.array_equal(stripes, ref.encode_stripes(blocks, plan))
        adversary = FaultPlan(t=1, seed=1, kind="byzantine")
        tampered, hit, dropped = corrupt_pieces(
            adversary, 5, 216, stripes, copies=plan.m
        )
        assert hit.sum() > pieces // plan.m
        words, ok = assert_same_decode(tampered, dropped, plan)
        assert ok.all() and np.array_equal(words, blocks)


# --------------------------------------------------------------------- #
# Aggregation collisions
# --------------------------------------------------------------------- #


def _cancel_at_stride_one(x: int) -> dict[int, int]:
    """Column values with ``e_0 + alpha e_1 = 0``: invisible at stride 1."""
    return {0: _mul(_alpha_pow(1), x), 1: x}


def _cancel_at_both_strides(x: int) -> dict[int, int]:
    """Three column values invisible to the stride-1 *and* stride-7 sums.

    ``e_0 + alpha e_1 + alpha^2 e_2 = 0`` and
    ``e_0 + alpha^7 e_1 + alpha^14 e_2 = 0``.
    """
    a = _alpha_pow
    e1 = _mul(_mul(a(2) ^ a(14), ref._inv(a(1) ^ a(7))), x)
    e0 = _mul(a(1), e1) ^ _mul(a(2), x)
    return {0: e0, 1: e1, 2: x}


class TestAggregationCollisions:
    """One corrupt stripe whose column errors cancel in the aggregate.

    Location runs on aggregated syndromes, so a single in-budget error
    that cancels at stride 1 is found at stride 7, and one that cancels at
    both strides is flagged (``ok`` False) and left to the retry loop even
    though every column alone would locate it.  A decoder that located per
    column would certify those pieces and fail the oracle comparison.
    """

    @pytest.mark.parametrize("t", [1, 2])
    @pytest.mark.parametrize("stripe", [0, 3, "parity"])
    def test_collisions_follow_the_oracle(self, t, stripe):
        rng = np.random.default_rng(7 * t)
        plan = stripe_plan(16, 16, t)  # S = 2 words: 8 columns per stripe
        blocks = random_pieces(rng, 6, 16)
        stripes = encode_stripes(blocks, plan).reshape(6, plan.m, -1).copy()
        symbols = stripes.view(np.uint16).reshape(6, plan.m, -1)
        target = plan.k if stripe == "parity" else stripe
        patterns = [
            _cancel_at_stride_one(0x1234),
            _cancel_at_both_strides(0x0BAD),
            {5: 0x00FF},
            _cancel_at_stride_one(0xFFFF),
            _cancel_at_both_strides(1),
            {},
        ]
        for i, columns in enumerate(patterns):
            for c, value in columns.items():
                symbols[i, target, c] ^= value
        tampered = stripes.reshape(6 * plan.m, -1)
        dropped = np.zeros(6 * plan.m, dtype=bool)
        ref_syn = ref._syndromes(
            ref._LOGZ[symbols.copy()], plan.k, plan.t
        )  # every corrupted column has a nonzero syndrome
        assert ref_syn[[0, 1, 2, 3, 4]].any(axis=(1, 2)).all()
        words, ok = assert_same_decode(tampered, dropped, plan)
        assert ok.tolist() == [True, False, True, True, False, True]
        assert np.array_equal(words[ok], blocks[ok])

    def test_beyond_budget_aggregate_pointing_at_a_clean_stripe(self):
        """Two corrupt stripes whose stride-1 aggregate names a third one.

        Column 0 carries an error at coefficient position ``a``, column 1
        one at ``b``, valued so that ``T_2 = alpha^q T_1``: location names
        the clean position ``q``, and only the per-column recheck sees that
        column 0 is not an error at ``q``.  Without the recheck the piece
        would be certified with a wrong word.
        """
        a_, mul, inv = _alpha_pow, _mul, ref._inv
        plan = stripe_plan(16, 16, 1)  # positions: data j -> j + 2, parity u -> u
        a, b, q = 2 + 1, 2 + 5, 2 + 3  # data stripes 1 and 5 corrupt, 3 named
        u = 0x1357
        x = a_(q)
        v = mul(
            mul(mul(u, a_(a)), a_(a) ^ x), inv(mul(a_(b + 1), x ^ a_(b)))
        )
        blocks = random_pieces(np.random.default_rng(3), 2, 16)
        stripes = encode_stripes(blocks, plan).reshape(2, plan.m, -1).copy()
        symbols = stripes.view(np.uint16).reshape(2, plan.m, -1)
        symbols[0, a - 2, 0] ^= u
        symbols[0, b - 2, 1] ^= v
        syn = ref._syndromes(ref._LOGZ[symbols.copy()], plan.k, plan.t)
        t1, t2 = ref._aggregate(syn, 1)[0]
        assert int(t2) == mul(int(t1), x)  # the aggregate really names q
        words, ok = assert_same_decode(
            stripes.reshape(2 * plan.m, -1), np.zeros(2 * plan.m, dtype=bool), plan
        )
        assert not ok[0] and ok[1]
        assert np.array_equal(words[1], blocks[1])
