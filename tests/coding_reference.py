"""The table-gather Reed-Solomon coder, kept as the oracle for the fast one.

:mod:`repro.faults.coding` evaluates syndromes by Horner's rule on packed
``uint64`` lanes, derives systematic parity from data syndromes, and
rechecks a correction by linearity.  The first implementation did every
field product as two gathers from 256 KB log/exp tables: parity as the
``k x 2t`` product with the rows of ``x^(2t+j) mod g(x)``, syndromes as an
``m x 2t`` pass over all stripes, and a full syndrome pass after every
error-pattern group's correction.  It lives on here unchanged, so the suite
can assert that the fast coder returns the same stripes, decoded words and
``ok`` flags:

* :func:`encode_stripes` -- generator-remainder parity (``_parity_row_logs``);
* :func:`_syndromes` -- the full table pass (``_syndrome_logs``);
* :func:`decode_stripes` -- erasure solve, PGZ location with a scalar Chien
  search per aggregated pattern, and a full syndrome recheck per group.

Only the striping plan (:class:`~repro.faults.coding.StripePlan`) is shared
with ``src/``.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.faults.coding import StripePlan

# --------------------------------------------------------------------- #
# GF(2^16) arithmetic
# --------------------------------------------------------------------- #

#: x^16 + x^12 + x^3 + x + 1 -- a primitive polynomial over GF(2), so
#: alpha = x (= 2) generates the full multiplicative group of order 2^16-1.
_GF_POLY = 0x1100B
GF_ORDER = (1 << 16) - 1

#: Log sentinel for 0: big enough that (sentinel + any valid log) indexes
#: the zero region of the product table, so multiplication needs no mask.
_LOG_ZERO = 1 << 17


def _build_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    exp = np.zeros(2 * GF_ORDER, dtype=np.uint16)
    log = np.zeros(1 << 16, dtype=np.int32)
    x = 1
    for i in range(GF_ORDER):
        exp[i] = x
        log[x] = i
        x <<= 1
        if x & 0x10000:
            x ^= _GF_POLY
    assert x == 1, "generator must have full order (primitive polynomial)"
    exp[GF_ORDER:] = exp[:GF_ORDER]
    logz = log.copy()
    logz[0] = _LOG_ZERO
    # mult[i + j] for i, j log-or-sentinel values: products of two nonzero
    # elements land below 2 * (GF_ORDER - 1) < _LOG_ZERO; anything
    # involving the sentinel lands in the zero-initialised tail.
    mult = np.zeros(2 * _LOG_ZERO + 1, dtype=np.uint16)
    mult[: 2 * GF_ORDER] = exp
    return exp, log, logz, mult


_EXP, _LOG, _LOGZ, _MULT = _build_tables()


def _mul(a: int, b: int) -> int:
    return int(_MULT[int(_LOGZ[a]) + int(_LOGZ[b])])


def _inv(a: int) -> int:
    if a == 0:
        raise ZeroDivisionError("GF(2^16) inverse of 0")
    return int(_EXP[GF_ORDER - int(_LOG[a])])


def _alpha_pow(e: int) -> int:
    return int(_EXP[e % GF_ORDER])


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


# --------------------------------------------------------------------- #
# Code construction (cached per (k, t))
# --------------------------------------------------------------------- #


@lru_cache(maxsize=256)
def _generator_poly(t: int) -> tuple[int, ...]:
    """g(x) = prod_{r=1..2t} (x - alpha^r), coefficients low to high, monic."""
    g = [1]
    for r in range(1, 2 * t + 1):
        root = _alpha_pow(r)
        nxt = [0] * (len(g) + 1)
        for i, c in enumerate(g):
            nxt[i + 1] ^= c
            nxt[i] ^= _mul(c, root)
        g = nxt
    return tuple(g)


@lru_cache(maxsize=256)
def _parity_row_logs(k: int, t: int) -> np.ndarray:
    """``(k, 2t)`` log-or-sentinel of the systematic parity coefficients.

    Row ``j`` holds the coefficients of ``x^{2t+j} mod g(x)``: parity
    symbol ``u`` of a codeword is ``XOR_j data_j * rows[j, u]``, making
    ``c(x) = d(x) x^{2t} + p(x)`` divisible by ``g`` -- the systematic
    BCH-view Reed-Solomon encoding.
    """
    g = _generator_poly(t)
    d = 2 * t
    rows = np.zeros((k, d), dtype=np.uint16)
    rem = list(g[:d])
    for j in range(k):
        rows[j] = rem
        carry = rem[d - 1]
        rem = [0] + rem[: d - 1]
        if carry:
            for u in range(d):
                rem[u] ^= _mul(carry, g[u])
    return _LOGZ[rows]


def _coeff_positions(k: int, t: int) -> np.ndarray:
    """Codeword coefficient position of each shipped stripe.

    Shipped stripe order is data first (coefficients ``2t .. 2t+k-1``),
    then parity (coefficients ``0 .. 2t-1``).
    """
    return np.concatenate(
        [np.arange(k, dtype=np.int64) + 2 * t, np.arange(2 * t, dtype=np.int64)]
    )


@lru_cache(maxsize=256)
def _syndrome_logs(k: int, t: int) -> np.ndarray:
    """``(m, 2t)`` logs of alpha^{pos_j * r} for syndrome roots r = 1..2t."""
    pos = _coeff_positions(k, t)
    r = np.arange(1, 2 * t + 1, dtype=np.int64)
    return ((pos[:, None] * r[None, :]) % GF_ORDER).astype(np.int32)


@lru_cache(maxsize=64)
def _gamma_logs(length: int, stride: int) -> np.ndarray:
    """Aggregation multipliers gamma_s = alpha^{stride * s} as logs."""
    return ((np.arange(length, dtype=np.int64) * stride) % GF_ORDER).astype(
        np.int32
    )


def _as_symbols(words: np.ndarray) -> np.ndarray:
    """View an int64 array as uint16 symbols on the last axis (x4)."""
    return np.ascontiguousarray(words).view(np.uint16)


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
    if s == 0 or p == 0:
        return np.zeros((p * plan.m, s), dtype=np.int64)
    sym = _as_symbols(blocks.reshape(p, width))
    data = np.zeros((p, k, 4 * s), dtype=np.uint16)
    data.reshape(p, -1)[:, : 4 * width] = sym
    row_logs = _parity_row_logs(k, t)
    data_logs = _LOGZ[data]
    parity = np.zeros((p, 2 * t, 4 * s), dtype=np.uint16)
    for j in range(k):
        contrib = _MULT[data_logs[:, j, None, :] + row_logs[j][None, :, None]]
        parity ^= contrib
    out = np.concatenate([data, parity], axis=1)
    return out.view(np.int64).reshape(p * plan.m, s)


def _syndromes(symbol_logs: np.ndarray, k: int, t: int) -> np.ndarray:
    """``(P, 2t, 4S)`` syndromes of ``(P, m, 4S)`` received symbol logs."""
    syn_logs = _syndrome_logs(k, t)
    p, m, cols = symbol_logs.shape
    syn = np.zeros((p, 2 * t, cols), dtype=np.uint16)
    for j in range(m):
        syn ^= _MULT[symbol_logs[:, j, None, :] + syn_logs[j][None, :, None]]
    return syn


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


def _solve_values(
    syn: np.ndarray, stripes: list[int], k: int, t: int
) -> np.ndarray | None:
    """Per-column error values at known stripe positions.

    ``syn`` is ``(P, 2t, C)``; returns ``(P, z, C)`` uint16 corrections to
    XOR into the ``z`` named stripes, solved from the first ``z`` syndromes
    (the remaining ``2t - z`` act as the verification margin).  None when
    ``z`` exceeds the 2t-equation budget.
    """
    z = len(stripes)
    if z > 2 * t:
        return None
    pos = _coeff_positions(k, t)
    rows = [
        [_alpha_pow(int(pos[j]) * r) for j in stripes]
        for r in range(1, z + 1)
    ]
    inv = _gf_inv_matrix(rows)
    if inv is None:  # distinct positions => Vandermonde-like, never singular
        return None  # pragma: no cover - defensive
    p, _, cols = syn.shape
    syn_logs = _LOGZ[syn]
    out = np.zeros((p, z, cols), dtype=np.uint16)
    for l in range(z):
        for r in range(z):
            coeff = inv[l][r]
            if coeff:
                out[:, l, :] ^= _MULT[syn_logs[:, r, :] + int(_LOGZ[coeff])]
    return out


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


def _aggregate(syn: np.ndarray, stride: int) -> np.ndarray:
    """``(P, 2t)`` aggregated syndromes ``T_r = XOR_s gamma_s * S_r[s]``."""
    gamma = _gamma_logs(syn.shape[2], stride)
    terms = _MULT[_LOGZ[syn] + gamma[None, None, :]]
    return np.bitwise_xor.reduce(terms, axis=2)


#: Aggregation strides tried in order; a corrupted stripe evades location
#: only if its error column-values satisfy one independent GF linear
#: relation per stride -- and even then the syndrome recheck fails loudly.
_AGGREGATION_STRIDES = (1, 7)


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
    dropped = np.asarray(dropped, dtype=bool)
    p = dropped.size // m
    stripes = np.asarray(stripes).reshape(p, m, s)
    valid = ~dropped.reshape(p, m)
    ok = np.ones(p, dtype=bool)
    if s == 0 or p == 0:
        return np.zeros((p, k * s), dtype=np.int64), ok
    symbols = _as_symbols(stripes).reshape(p, m, 4 * s).copy()
    symbols[~valid] = 0
    syn = _syndromes(_LOGZ[symbols], k, t)
    clean = ~syn.reshape(p, -1).any(axis=1)
    erasures = (~valid).sum(axis=1)
    # A clean syndrome with f <= 2t erasures is already the unique
    # codeword within the erasure ball (the dropped stripes were zero).
    ok &= erasures <= 2 * t
    settled = (clean & ok) | ~ok

    # Known erasures: recover the dropped stripes per erasure pattern.
    erased = ~settled & (erasures > 0)
    if erased.any():
        idx = np.flatnonzero(erased)
        patterns, inverse = np.unique(valid[idx], axis=0, return_inverse=True)
        for g, pattern in enumerate(patterns):
            grp = idx[inverse == g]
            holes = [int(j) for j in np.flatnonzero(~pattern)]
            fixes = _solve_values(syn[grp], holes, k, t)
            if fixes is None:
                ok[grp] = False
                continue
            for l, j in enumerate(holes):
                symbols[grp, j, :] ^= fixes[:, l, :]
        redo = idx[ok[idx]]
        if redo.size:
            residual = _syndromes(_LOGZ[symbols[redo]], k, t)
            bad = residual.reshape(redo.size, -1).any(axis=1)
            # Errors on top of erasures: out of this decoder's sequential
            # budget -- fail loudly, the exchange layer re-ships.
            ok[redo[bad]] = False
        settled |= erased

    # Unknown error locations: locate (PGZ on aggregated syndromes),
    # correct, and verify with a full syndrome recheck.
    pending = np.flatnonzero(~settled)
    for stride in _AGGREGATION_STRIDES:
        if pending.size == 0:
            break
        agg = _aggregate(syn[pending], stride)
        patterns, inverse = np.unique(agg, axis=0, return_inverse=True)
        unresolved: list[np.ndarray] = []
        for g in range(patterns.shape[0]):
            grp = pending[inverse == g]
            located = _pgz_locate(tuple(int(v) for v in patterns[g]), k, t)
            fixes = (
                _solve_values(syn[grp], located, k, t)
                if located is not None
                else None
            )
            if fixes is None:
                unresolved.append(grp)
                continue
            for l, j in enumerate(located):
                symbols[grp, j, :] ^= fixes[:, l, :]
            residual = _syndromes(_LOGZ[symbols[grp]], k, t)
            bad = residual.reshape(grp.size, -1).any(axis=1)
            if bad.any():
                # Mislocated or partially located (aggregation collision):
                # XOR the attempted correction back out so the next stride
                # works on the pristine received word.
                for l, j in enumerate(located):
                    symbols[grp[bad], j, :] ^= fixes[bad, l, :]
                unresolved.append(grp[bad])
        pending = (
            np.concatenate(unresolved)
            if unresolved
            else np.zeros(0, dtype=np.int64)
        )
    ok[pending] = False

    data = symbols[:, :k, :].reshape(p, 4 * k * s)
    return np.ascontiguousarray(data).view(np.int64), ok
