"""Systematic Reed-Solomon striping over GF(2^16) for encoded exchanges.

Shipping ``2t + 1`` full copies of every piece would buy fault tolerance
at a ``2t + 1``-factor round overhead.  This module implements the shape
the LDC-based robust-computation compilers (Censor-Hillel-Fischer-Gelles-
Soto, arXiv:2508.08740) point at: *encode* the exchange with an
error-correcting code so tolerance costs a constant rate factor instead.

Every int64 word is four GF(2^16) symbols.  A piece of ``W`` words is cut
into ``k`` data stripes of ``S = ceil(W / (n - 2t))`` words each
(``k = ceil(W / S)``), and ``2t`` parity stripes are appended -- a
systematic Reed-Solomon code of length ``m = k + 2t <= n``, applied
column-wise across stripes (symbol position ``s`` of all ``m`` stripes is
one RS codeword).  Each stripe transits a distinct relay
(:func:`repro.clique.scheduling.disjoint_relays` with ``copies = m``), so
``t`` corrupt relay *nodes* touch at most ``t`` stripes of any piece:

* ``t`` corrupted stripes (flip / byzantine) are *corrected* -- located by
  Peterson-Gorenstein-Zierler over aggregated syndromes (in closed form at
  ``t = 1``), valued by a Vandermonde solve, and verified by a syndrome
  recheck;
* ``2t`` dropped stripes (drop / crash) are known erasures and are
  recovered directly;
* anything beyond the budget fails the (vectorised) syndrome check loudly
  -- ``ok`` comes back False and the caller re-ships or raises, never
  returning an unverified word.

The round bill per piece drops from ``(2t + 1) * w`` to
``m * ceil(w / k) ~ w * n / (n - 2t)``.

Arithmetic.  The hot paths never unpack a word: a ``uint64`` word is four
16-bit *lanes*, and multiplying every lane by ``alpha^s`` (``s <= 4``) is a
shift, two masks and a fixed shift-and-XOR reduction of the ``s`` bits each
lane shifts out (``x^16 = x^12 + x^3 + x + 1``) -- no table, no gather;
larger powers chain steps of four.  On that one rule:

* syndromes ``S_r = c(alpha^r)`` are Horner evaluations over the
  stripe-major ``(m, P * S)`` word layout, one multiply by ``alpha^r`` per
  stripe;
* systematic parity comes from the data alone: ``c(alpha^r) = 0`` gives
  ``p(alpha^r) = sum_j d_j alpha^((2t + j) r)``, so the ``2t`` parity
  stripes are one constant ``2t x 2t`` inverse Vandermonde applied to the
  ``2t`` Horner evaluations of the data stripes (a constant product XORs
  the ``alpha^b``-ladder of its operand over the set bits ``b`` of the
  constant);
* a correction is rechecked by linearity: after fixes ``f_l`` are XOR-ed
  into stripes at coefficient positions ``q_l``, the residual syndrome is
  ``S_r ^ sum_l f_l alpha^(q_l r)`` -- ``O(z * 2t)`` work per column of a
  piece that needed fixing, with no second pass over the ``m`` stripes.

Only pieces with a nonzero syndrome reach the log/antilog tables (fix
values, aggregation, rechecks), a small fraction of any in-budget exchange.

Decoding guarantees: with at most ``t`` corrupted stripes and ``f``
dropped stripes satisfying ``2t_err + f <= 2t``, the decode is exact
(classical RS unique decoding).  Error *location* aggregates the per-column
syndromes with two independent multiplier vectors; a corrupted stripe
escapes both aggregations only if its error values satisfy two independent
GF(2^16) linear relations, in which case the syndrome recheck still fails
loudly and the exchange is retried through fresh relays -- the
detect-retry-degrade contract, never a silent wrong word.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

# --------------------------------------------------------------------- #
# GF(2^16) arithmetic
# --------------------------------------------------------------------- #

#: x^16 + x^12 + x^3 + x + 1 -- a primitive polynomial over GF(2), so
#: alpha = x (= 2) generates the full multiplicative group of order 2^16-1.
_GF_POLY = 0x1100B
GF_ORDER = (1 << 16) - 1

#: Log sentinel for 0: big enough that (sentinel + any valid log) indexes
#: the zero tail of the antilog table, so products need no mask.
_LOG_ZERO = 1 << 17


def _build_tables() -> tuple[np.ndarray, np.ndarray]:
    """Antilog table (zero tail past ``2 * GF_ORDER``) and log table."""
    exp = np.zeros(2 * _LOG_ZERO + 1, dtype=np.uint16)
    log = np.zeros(1 << 16, dtype=np.int64)
    x = 1
    for i in range(GF_ORDER):
        exp[i] = x
        log[x] = i
        x <<= 1
        if x & 0x10000:
            x ^= _GF_POLY
    assert x == 1, "generator must have full order (primitive polynomial)"
    exp[GF_ORDER : 2 * GF_ORDER] = exp[:GF_ORDER]
    log[0] = _LOG_ZERO
    return exp, log


_EXP, _LOG = _build_tables()


def _mul(a: int, b: int) -> int:
    return int(_EXP[int(_LOG[a]) + int(_LOG[b])])


def _inv(a: int) -> int:
    if a == 0:
        raise ZeroDivisionError("GF(2^16) inverse of 0")
    return int(_EXP[GF_ORDER - int(_LOG[a])])


def _alpha_pow(e: int) -> int:
    return int(_EXP[e % GF_ORDER])


def _times_alpha_pow(x: np.ndarray, e: np.ndarray) -> np.ndarray:
    """``x * alpha^e`` elementwise on ``uint16`` symbols (any integer ``e``).

    A log/antilog gather: only for the few pieces a decode has to fix.
    """
    return _EXP[_LOG[x] + np.mod(e, GF_ORDER)]


def _poly_eval(coeffs: list[int], x: int) -> int:
    """Evaluate sum_i coeffs[i] * x^i (coefficients low to high)."""
    acc = 0
    for c in reversed(coeffs):
        acc = _mul(acc, x) ^ c
    return acc


def _gf_solve(rows: list[list[int]], rhs: list[int]) -> list[int] | None:
    """Solve a tiny dense GF(2^16) linear system; None when singular."""
    z = len(rhs)
    a = [list(r) + [v] for r, v in zip(rows, rhs)]
    for col in range(z):
        pivot = next((r for r in range(col, z) if a[r][col]), None)
        if pivot is None:
            return None
        a[col], a[pivot] = a[pivot], a[col]
        piv_inv = _inv(a[col][col])
        a[col] = [_mul(v, piv_inv) for v in a[col]]
        for r in range(z):
            if r != col and a[r][col]:
                factor = a[r][col]
                a[r] = [v ^ _mul(factor, p) for v, p in zip(a[r], a[col])]
    return [a[r][z] for r in range(z)]


def _gf_inv_matrix(rows: list[list[int]]) -> list[list[int]] | None:
    """Invert a tiny GF(2^16) matrix via per-column solves."""
    z = len(rows)
    cols = []
    for c in range(z):
        rhs = [1 if r == c else 0 for r in range(z)]
        col = _gf_solve(rows, rhs)
        if col is None:
            return None
        cols.append(col)
    return [[cols[c][r] for c in range(z)] for r in range(z)]


# --------------------------------------------------------------------- #
# Packed lanes: four symbols per uint64 word
# --------------------------------------------------------------------- #

#: The low bit of each of the four 16-bit lanes of a uint64 word.
_LANE_ONES = 0x0001000100010001


def _lanes_times_alpha_pow(x: np.ndarray, e: int, scratch: np.ndarray) -> None:
    """``x <- x * alpha^e`` in place, lane by lane, on packed uint64 words.

    One step multiplies by ``alpha^s`` for ``s <= 4``: shift each lane left
    by ``s``, drop the ``s`` bits that crossed in from the lane below, and
    fold the ``s`` bits ``h`` the lane shifted out back in as
    ``h * x^16 = h * (x^12 + x^3 + x + 1)`` -- with ``deg h < 4`` every term
    stays inside the lane.  Larger exponents chain steps of four.
    """
    while e > 0:
        s = min(e, 4)
        low = np.uint64(((1 << s) - 1) * _LANE_ONES)
        np.right_shift(x, np.uint64(16 - s), out=scratch)
        scratch &= low
        x <<= np.uint64(s)
        x &= ~low
        if s == 1:
            # One bit per lane: the carry-less product is an integer one.
            scratch *= np.uint64(_GF_POLY & 0xFFFF)
            x ^= scratch
        else:
            x ^= scratch
            for shift in (1, 2, 9):  # h * x, h * x^3, h * x^12
                scratch <<= np.uint64(shift)
                x ^= scratch
        e -= s


def _horner(rows: np.ndarray, order: list[int], e: int) -> np.ndarray:
    """``XOR_i rows[order[i]] * alpha^(e * (len(order) - 1 - i))``.

    Horner's rule over packed ``(L, N)`` uint64 rows, highest coefficient
    first: one multiply by ``alpha^e`` per row.
    """
    acc = rows[order[0]].copy()
    scratch = np.empty_like(acc)
    for q in order[1:]:
        _lanes_times_alpha_pow(acc, e, scratch)
        acc ^= rows[q]
    return acc


def _lanes_combine(
    matrix: tuple[tuple[int, ...], ...], vecs: list[np.ndarray]
) -> list[np.ndarray]:
    """``out[u] = XOR_r matrix[u][r] * vecs[r]`` on packed uint64 words.

    A constant product is linear in its operand: ``c * v`` is the XOR of
    ``alpha^b * v`` over the set bits ``b`` of ``c``, so one ``alpha``-ladder
    per input vector serves every output row.
    """
    out = [np.zeros_like(vecs[0]) for _ in matrix]
    scratch = np.empty_like(vecs[0])
    for r, vec in enumerate(vecs):
        rung = vec.copy()
        top = max(row[r] for row in matrix).bit_length()
        for b in range(top):
            for u, row in enumerate(matrix):
                if row[r] >> b & 1:
                    out[u] ^= rung
            if b + 1 < top:
                _lanes_times_alpha_pow(rung, 1, scratch)
    return out


def _stripe_major(words: np.ndarray) -> np.ndarray:
    """``(P, L, S)`` int64 stripes as packed ``(L, P * S)`` uint64 rows."""
    p, length, s = words.shape
    rows = np.ascontiguousarray(words.transpose(1, 0, 2))
    return rows.view(np.uint64).reshape(length, p * s)


# --------------------------------------------------------------------- #
# Code construction
# --------------------------------------------------------------------- #


def _coeff_positions(k: int, t: int) -> np.ndarray:
    """Codeword coefficient position of each shipped stripe.

    Shipped stripe order is data first (coefficients ``2t .. 2t+k-1``),
    then parity (coefficients ``0 .. 2t-1``).
    """
    return np.concatenate(
        [np.arange(k, dtype=np.int64) + 2 * t, np.arange(2 * t, dtype=np.int64)]
    )


@lru_cache(maxsize=64)
def _parity_matrix(t: int) -> tuple[tuple[int, ...], ...]:
    """``(2t, 2t)`` map from data Horner evaluations to parity symbols.

    The parity polynomial ``p(x) = sum_u p_u x^u`` (``u < 2t``) makes
    ``c(alpha^r) = 0``, i.e. ``V p = diag(alpha^(2t r)) H`` with the
    Vandermonde ``V[r][u] = alpha^(u r)`` and ``H_r = sum_j d_j
    alpha^(j r)`` (``r = 1 .. 2t``); this is ``V^-1 diag(alpha^(2t r))``.
    """
    d = 2 * t
    vand = [[_alpha_pow(u * r) for u in range(d)] for r in range(1, d + 1)]
    inv = _gf_inv_matrix(vand)
    assert inv is not None, "Vandermonde over distinct points is invertible"
    return tuple(
        tuple(_mul(inv[u][r], _alpha_pow(d * (r + 1))) for r in range(d))
        for u in range(d)
    )


# --------------------------------------------------------------------- #
# Striping plans
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class StripePlan:
    """How one exchange's pieces are striped: RS(m, k) over GF(2^16).

    Attributes:
        width: words per (padded) piece, ``W``.
        k: data stripes per piece.
        t: tolerated corrupt relays (``2t`` parity stripes).
        stripe_words: int64 words per stripe, ``S = ceil(W / k)``.
    """

    width: int
    k: int
    t: int
    stripe_words: int

    @property
    def m(self) -> int:
        """Total stripes per piece (code length)."""
        return self.k + 2 * self.t

    @property
    def symbols(self) -> int:
        """GF(2^16) symbols per stripe."""
        return 4 * self.stripe_words


@lru_cache(maxsize=4096)
def stripe_plan(width: int, n: int, tolerance: int) -> StripePlan:
    """The widest striping that keeps ``m <= n`` distinct relays per piece.

    ``S = ceil(W / (n - 2t))`` minimises the padded overhead
    ``m * S / W = 1 + 2t * S / W`` subject to the relay-disjointness bound;
    for ``W >= n - 2t`` this approaches the information-theoretic rate
    ``n / (n - 2t)``, and for tiny pieces it degrades gracefully to
    ``(W + 2t) / W`` (equal to replication only at ``W = 1``).
    """
    if tolerance < 1:
        raise ValueError(f"coded striping needs tolerance >= 1, got {tolerance}")
    if n - 2 * tolerance < 1:
        raise ValueError(
            f"RS striping needs n - 2t >= 1 data stripes "
            f"(n = {n}, t = {tolerance})"
        )
    if width < 0:
        raise ValueError(f"piece width must be non-negative, got {width}")
    if width == 0:
        return StripePlan(width=0, k=1, t=tolerance, stripe_words=0)
    stripe_words = -(-width // (n - 2 * tolerance))
    k = -(-width // stripe_words)
    return StripePlan(width=width, k=k, t=tolerance, stripe_words=stripe_words)


def encode_stripes(blocks: np.ndarray, plan: StripePlan) -> np.ndarray:
    """Encode ``(P, ...)`` int64 pieces into ``(P * m, S)`` int64 stripes.

    Stripe ``i * m + j`` is stripe ``j`` of piece ``i``: data stripes
    ``j < k`` carry words ``[j*S, (j+1)*S)`` of the (zero-padded) piece,
    stripes ``j >= k`` carry the ``2t`` Reed-Solomon parity words.
    """
    p = blocks.shape[0]
    width = int(np.prod(blocks.shape[1:], dtype=np.int64))
    if width != plan.width:
        raise ValueError(
            f"pieces have {width} words but the plan stripes {plan.width}"
        )
    k, t, s = plan.k, plan.t, plan.stripe_words
    out = np.zeros((p, plan.m, s), dtype=np.int64)
    if s == 0 or p == 0:
        return out.reshape(p * plan.m, s)
    out.reshape(p, -1)[:, :width] = blocks.reshape(p, width)
    rows = _stripe_major(out[:, :k])
    high_first = list(range(k - 1, -1, -1))
    evals = [_horner(rows, high_first, r) for r in range(1, 2 * t + 1)]
    for u, parity in enumerate(_lanes_combine(_parity_matrix(t), evals)):
        out[:, k + u] = parity.view(np.int64).reshape(p, s)
    return out.reshape(p * plan.m, s)


def _pgz_locate(syndromes: tuple[int, ...], k: int, t: int) -> list[int] | None:
    """Peterson-Gorenstein-Zierler: corrupt stripe indices, or None.

    ``syndromes`` are the 2t aggregated syndromes S_1..S_2t.  Finds the
    largest ``nu <= t`` with a nonsingular Hankel system, solves the error
    locator ``sigma(x) = 1 + sigma_1 x + ... + sigma_nu x^nu``, and Chien-
    searches its roots over the ``m`` stripe locators.  Returns None when
    no consistent locator exists (location failed -- caller retries).
    """
    pos = _coeff_positions(k, t)
    for nu in range(t, 0, -1):
        rows = [
            [syndromes[j - i - 1] for i in range(1, nu + 1)]
            for j in range(nu + 1, 2 * nu + 1)
        ]
        rhs = [syndromes[j - 1] for j in range(nu + 1, 2 * nu + 1)]
        sigma = _gf_solve(rows, rhs)
        if sigma is None:
            continue
        locator = [1] + sigma
        roots = [
            j
            for j in range(len(pos))
            if _poly_eval(locator, _alpha_pow(-int(pos[j]))) == 0
        ]
        if len(roots) == nu:
            return roots
    return None


def _solve_values(syn: np.ndarray, stripes: list[int], k: int, t: int) -> np.ndarray:
    """Per-column error values at known stripe positions.

    ``syn`` is ``(P, 2t, C)``; returns ``(P, z, C)`` uint16 corrections to
    XOR into the ``z <= 2t`` named stripes, solved from the first ``z``
    syndromes (the remaining ``2t - z`` act as the verification margin).
    """
    pos = _coeff_positions(k, t)
    rows = [
        [_alpha_pow(int(pos[j]) * r) for j in stripes]
        for r in range(1, len(stripes) + 1)
    ]
    inv = _gf_inv_matrix(rows)
    assert inv is not None, "distinct positions give a nonsingular system"
    logs = _LOG[syn[:, : len(stripes)]]
    out = np.zeros((syn.shape[0], len(stripes), syn.shape[2]), dtype=np.uint16)
    for l, row in enumerate(inv):
        for r, coeff in enumerate(row):
            out[:, l] ^= _EXP[logs[:, r] + int(_LOG[coeff])]
    return out


def _residual(syn: np.ndarray, fix: np.ndarray, pos: np.ndarray) -> np.ndarray:
    """Syndromes after XOR-ing ``fix`` into the word, by linearity.

    ``syn`` is ``(P, 2t, C)``, ``fix`` ``(P, z, C)`` and ``pos`` ``(P, z)``
    coefficient positions: ``S_r ^ XOR_l fix_l * alpha^(pos_l * r)``.  A
    zero fix contributes nothing, so padded slots may hold any position.
    """
    r = np.arange(1, syn.shape[1] + 1, dtype=np.int64)
    out = syn.copy()
    for l in range(fix.shape[1]):
        out ^= _times_alpha_pow(fix[:, None, l, :], (pos[:, l, None] * r)[:, :, None])
    return out


def _aggregate(syn: np.ndarray, stride: int) -> np.ndarray:
    """``(P, 2t)`` aggregated syndromes ``T_r = XOR_s alpha^(stride s) S_r[s]``."""
    gamma = stride * np.arange(syn.shape[2], dtype=np.int64)
    return np.bitwise_xor.reduce(_times_alpha_pow(syn, gamma), axis=2)


#: Aggregation strides tried in order; a corrupted stripe evades location
#: only if its error column-values satisfy one independent GF linear
#: relation per stride -- and even then the syndrome recheck fails loudly.
_AGGREGATION_STRIDES = (1, 7)


def _locate(
    syn: np.ndarray, stride: int, k: int, t: int
) -> tuple[np.ndarray, np.ndarray]:
    """Locate and value the errors of ``(P, 2t, C)`` syndromes.

    Returns ``(stripes, fix)``: ``(P, t)`` corrupt stripe indices (``-1``
    pads; a piece whose first entry is ``-1`` was not located) and the
    ``(P, t, C)`` values to XOR into them.  Location runs on the syndromes
    aggregated at ``stride``.  At ``t = 1`` PGZ is one step, run in closed
    form over every piece at once: one error at coefficient position ``q``
    gives ``T_2 / T_1 = alpha^q`` and the value ``S_1 / alpha^q``.  Larger
    ``t`` runs PGZ and the Chien search once per aggregated pattern.
    """
    p, _, cols = syn.shape
    m = k + 2 * t
    agg = _aggregate(syn, stride)
    stripes = np.full((p, t), -1, dtype=np.int64)
    fix = np.zeros((p, t, cols), dtype=np.uint16)
    if t == 1:
        q = np.mod(_LOG[agg[:, 1]] - _LOG[agg[:, 0]], GF_ORDER)
        found = agg.all(axis=1) & (q < m)
        q = q[found]
        # Data stripes sit at positions 2.., the two parity stripes at 0, 1.
        stripes[found, 0] = np.where(q >= 2, q - 2, q + k)
        fix[found, 0] = _times_alpha_pow(syn[found, 0], -q[:, None])
        return stripes, fix
    patterns, inverse = np.unique(agg, axis=0, return_inverse=True)
    for g, pattern in enumerate(patterns):
        located = _pgz_locate(tuple(int(v) for v in pattern), k, t)
        if located is None:
            continue
        members = inverse.reshape(-1) == g
        stripes[members, : len(located)] = located
        fix[members, : len(located)] = _solve_values(syn[members], located, k, t)
    return stripes, fix


def decode_stripes(
    stripes: np.ndarray, dropped: np.ndarray, plan: StripePlan
) -> tuple[np.ndarray, np.ndarray]:
    """Decode one striped exchange back to pieces.

    Args:
        stripes: ``(P * m, S)`` (or ``(P, m, S)``) int64 received stripes.
        dropped: ``(P * m,)`` (or ``(P, m)``) bool known-erasure flags.
        plan: the :class:`StripePlan` the exchange was encoded with.

    Returns:
        ``(decoded, ok)``: ``decoded`` is ``(P, k * S)`` int64 -- the data
        words (callers trim to ``plan.width`` and reshape); ``ok`` is
        ``(P,)`` bool.  Pieces with ``ok`` False carry no guarantee and
        must be retried or raised on, never used.
    """
    k, t, s, m = plan.k, plan.t, plan.stripe_words, plan.m
    erased = np.asarray(dropped, dtype=bool)
    p = erased.size // m
    erased = erased.reshape(p, m)
    ok = np.ones(p, dtype=bool)
    if s == 0 or p == 0:
        return np.zeros((p, k * s), dtype=np.int64), ok
    words = np.asarray(stripes).reshape(p, m, s)
    data = words[:, :k].copy()
    rows = _stripe_major(words)
    if erased.any():
        data[erased[:, :k]] = 0
        rows.reshape(m, p, s)[erased.T] = 0
    # Syndromes c(alpha^r), highest coefficient (the last data stripe) first.
    high_first = list(range(k - 1, -1, -1)) + list(range(m - 1, k - 1, -1))
    syn = np.stack([_horner(rows, high_first, r) for r in range(1, 2 * t + 1)])
    dirty = syn.any(axis=0).reshape(p, s).any(axis=1)
    symbols = syn.view(np.uint16).reshape(2 * t, p, 4 * s)
    data_symbols = data.view(np.uint16).reshape(p, k, 4 * s)
    positions = _coeff_positions(k, t)

    def correct(idx: np.ndarray, where: np.ndarray, fix: np.ndarray) -> None:
        """XOR pieces' fixes into their data stripes (parity is not returned)."""
        for l in range(where.shape[1]):
            sel = (where[:, l] >= 0) & (where[:, l] < k)
            data_symbols[idx[sel], where[sel, l]] ^= fix[sel, l]

    erasures = erased.sum(axis=1)
    # A clean syndrome with f <= 2t erasures is already the unique
    # codeword within the erasure ball (the dropped stripes were zero).
    ok &= erasures <= 2 * t

    # Known erasures: solve the dropped stripes per erasure pattern, then
    # recheck every such piece at once.  A failed piece keeps its fix (it
    # is flagged, never used).
    idx = np.flatnonzero(dirty & ok & (erasures > 0))
    if idx.size:
        sub = symbols[:, idx].transpose(1, 0, 2)
        where = np.full((idx.size, 2 * t), -1, dtype=np.int64)
        fix = np.zeros((idx.size, 2 * t, 4 * s), dtype=np.uint16)
        patterns, inverse = np.unique(erased[idx], axis=0, return_inverse=True)
        for g, pattern in enumerate(patterns):
            members = inverse.reshape(-1) == g
            holes = [int(j) for j in np.flatnonzero(pattern)]
            where[members, : len(holes)] = holes
            fix[members, : len(holes)] = _solve_values(sub[members], holes, k, t)
        residual = _residual(sub, fix, positions[where])
        # Errors on top of erasures: out of this decoder's sequential
        # budget -- fail loudly, the exchange layer re-ships.
        ok[idx[residual.reshape(idx.size, -1).any(axis=1)]] = False
        correct(idx, where, fix)

    # Unknown error locations: locate on aggregated syndromes, value, and
    # keep only the corrections whose linear recheck comes out clean.  A
    # mislocated piece (aggregation collision) stays as received and is
    # tried again at the next stride.
    pending = np.flatnonzero(dirty & ok & (erasures == 0))
    for stride in _AGGREGATION_STRIDES:
        if pending.size == 0:
            break
        sub = symbols[:, pending].transpose(1, 0, 2)
        where, fix = _locate(sub, stride, k, t)
        residual = _residual(sub, fix, positions[where])
        good = (where[:, 0] >= 0) & ~residual.reshape(pending.size, -1).any(axis=1)
        correct(pending[good], where[good], fix[good])
        pending = pending[~good]
    ok[pending] = False

    return data.reshape(p, k * s), ok


__all__ = [
    "GF_ORDER",
    "StripePlan",
    "decode_stripes",
    "encode_stripes",
    "stripe_plan",
]
