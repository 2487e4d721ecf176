"""Witness detection for distance products (paper §3.4, Lemma 21).

The §2.2 ring engine computes distance *values* but not the minimising inner
index, which the routing-table construction of §3.3 needs.  Following the
paper (after Seidel [65], Zwick [76], Alon-Naor [4]):

* **Unique witnesses** -- for each bit position ``i``, compute the masked
  product ``S(*, V_i) * T(V_i, *)`` where ``V_i`` is the set of indices with
  bit ``i`` set; where the masked product equals the full product, some
  witness has bit ``i`` set.  A pair with a *unique* witness reads that
  witness off bitwise.  ``O(log n)`` products.

* **General case** -- for each scale ``i`` sample ``O(log n)`` random subsets
  of size ``2^i``; a pair with ``r`` witnesses, ``n/2^{i+1} <= r < n/2^i``,
  sees exactly one of them in a sample with constant probability, reducing
  to the unique case.  ``O(log^3 n)`` products in total, matching the
  ``M polylog(n)`` bound of Lemma 21.

Candidate validation is itself distributed: checking ``S[u,w] + T[w,v] =
P[u,v]`` needs ``T[w, v]``, which lives at node ``w``; nodes exchange
(request, response) pairs through the router and the rounds are charged to
the meter like everything else.  Both routed hops run on
:meth:`~repro.clique.model.CongestedClique.route_array`: requests and
responses are ``(p_v, 1)`` / ``(p_v, 2)`` index batches, one word per
request or response.  The per-pair formulation the hops were ported from
lives on as a test reference (``tests/tuple_reference.py``), which pins
both hops' charges to it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.algebra.semirings import saturating_add
from repro.clique.model import CongestedClique
from repro.constants import INF
from repro.errors import AlgorithmFailureError

#: A distributed distance-product engine: ``(s, t, phase) -> P``.
ProductFn = Callable[[np.ndarray, np.ndarray, str], np.ndarray]


@dataclass
class WitnessResult:
    """Outcome of a witness search.

    Attributes:
        witnesses: ``W[u, v]`` = witness index, or ``-1`` where ``P[u,v]``
            is infinite (no witness exists) or unresolved.
        resolved: boolean mask of pairs with a verified witness (infinite
            pairs count as resolved).
        products_used: how many distance products were spent.
    """

    witnesses: np.ndarray
    resolved: np.ndarray
    products_used: int


def _mask_columns(s: np.ndarray, keep: np.ndarray) -> np.ndarray:
    masked = np.full_like(s, INF)
    masked[:, keep] = s[:, keep]
    return masked


def _mask_rows(t: np.ndarray, keep: np.ndarray) -> np.ndarray:
    masked = np.full_like(t, INF)
    masked[keep, :] = t[keep, :]
    return masked


def _validate_candidates(
    clique: CongestedClique,
    s: np.ndarray,
    t: np.ndarray,
    p: np.ndarray,
    candidates: np.ndarray,
    needed: np.ndarray,
    phase: str,
) -> np.ndarray:
    """Distributed check that candidate witnesses attain ``P``.

    Node ``u`` holds rows ``s[u]``, ``p[u]`` and the candidate row; it must
    learn ``t[w, v]`` for each needed pair ``(u, v)`` with candidate ``w``.
    Two routed hops: requests ``u -> w`` carrying ``v``, responses ``w -> u``
    carrying ``t[w, v]``.  Node ``u``'s requests are one ``(p_u, 1)`` batch
    of column ids (one word each), responses one ``(p_w, 2)`` batch of
    ``(v, t[w, v])`` rows (one word each).
    """
    n = clique.n
    req_dests: list[np.ndarray] = []
    req_blocks: list[np.ndarray] = []
    req_widths: list[np.ndarray] = []
    for u in range(n):
        cols = np.nonzero(needed[u])[0].astype(np.int64)
        w_arr = candidates[u, cols]
        keep = (w_arr >= 0) & (w_arr < n)
        cols = cols[keep]
        req_dests.append(w_arr[keep])
        req_blocks.append(cols[:, None])
        req_widths.append(np.ones(cols.shape[0], dtype=np.int64))
    inboxes = clique.route_array(
        req_dests, req_blocks, widths=req_widths, phase=f"{phase}/requests"
    )
    resp_dests: list[np.ndarray] = []
    resp_blocks: list[np.ndarray] = []
    resp_widths: list[np.ndarray] = []
    for w in range(n):
        inbox = inboxes[w]
        v_arr = inbox.blocks[:, 0]
        resp_dests.append(inbox.sources)
        resp_blocks.append(np.stack([v_arr, t[w, v_arr]], axis=1))
        resp_widths.append(np.ones(v_arr.shape[0], dtype=np.int64))
    inboxes = clique.route_array(
        resp_dests, resp_blocks, widths=resp_widths, phase=f"{phase}/responses"
    )
    ok = np.zeros_like(needed)
    for u in range(n):
        inbox = inboxes[u]
        if inbox.sources.shape[0] == 0:
            continue
        v_arr = inbox.blocks[:, 0]
        t_arr = inbox.blocks[:, 1]
        w_arr = candidates[u, v_arr]
        assert np.array_equal(w_arr, inbox.sources)
        s_arr = s[u, w_arr]
        good = (
            (t_arr < INF)
            & (s_arr < INF)
            & (saturating_add(s_arr, t_arr) == p[u, v_arr])
        )
        ok[u, v_arr[good]] = True
    return ok


def unique_witnesses(
    clique: CongestedClique,
    s: np.ndarray,
    t: np.ndarray,
    p: np.ndarray,
    product: ProductFn,
    *,
    phase: str = "witness/unique",
) -> tuple[np.ndarray, int]:
    """Bitwise candidate extraction (§3.4 "finding unique witnesses").

    Returns ``(candidates, products_used)``; candidates are exact for every
    pair whose witness is unique, arbitrary otherwise (callers validate).
    """
    n = clique.n
    bits = max(1, math.ceil(math.log2(n)))
    candidates = np.zeros((n, n), dtype=np.int64)
    used = 0
    indices = np.arange(n)
    for bit in range(bits):
        keep = (indices >> bit) & 1 == 1
        if not keep.any():
            continue
        masked = product(
            _mask_columns(s, keep), _mask_rows(t, keep), f"{phase}/bit{bit}"
        )
        used += 1
        candidates |= ((masked == p).astype(np.int64)) << bit
    return candidates, used


def find_witnesses(
    clique: CongestedClique,
    s: np.ndarray,
    t: np.ndarray,
    product: ProductFn,
    *,
    p: np.ndarray | None = None,
    rng: np.random.Generator | None = None,
    trials_per_scale: int | None = None,
    on_failure: str = "raise",
    phase: str = "witness",
) -> WitnessResult:
    """Lemma 21: witness matrix for the distance product ``S * T``.

    Args:
        clique: the clique to charge.
        s, t: operands (row-distribution convention).
        product: the distance-product engine to use for the ``polylog(n)``
            masked products (e.g. a Lemma 18 closure).
        p: the full product, if already computed (else one more product).
        rng: randomness source for the sampling stage.
        trials_per_scale: samples per witness-count scale; default
            ``2 ceil(log2 n)`` as in the paper's ``c log n``.
        on_failure: ``"raise"`` (default) raises
            :class:`~repro.errors.AlgorithmFailureError` if pairs stay
            unresolved after the trial budget; ``"partial"`` returns with the
            ``resolved`` mask showing the gaps.
        phase: cost-meter label prefix.
    """
    n = clique.n
    rng = rng if rng is not None else np.random.default_rng(0)
    used = 0
    if p is None:
        p = product(s, t, f"{phase}/full")
        used += 1
    witnesses = np.full((n, n), -1, dtype=np.int64)
    resolved = p >= INF  # infinite entries need no witness

    def absorb(candidates: np.ndarray, sub_phase: str) -> None:
        nonlocal witnesses, resolved
        needed = ~resolved
        if not needed.any():
            return
        ok = _validate_candidates(clique, s, t, p, candidates, needed, sub_phase)
        newly = needed & ok
        witnesses[newly] = candidates[newly]
        resolved |= newly

    candidates, n_used = unique_witnesses(clique, s, t, p, product, phase=f"{phase}/unique")
    used += n_used
    absorb(candidates, f"{phase}/unique-validate")

    scales = max(1, math.ceil(math.log2(n)))
    trials = trials_per_scale if trials_per_scale is not None else 2 * scales
    for i in range(scales):
        if resolved.all():
            break
        sample_size = 1 << i
        for j in range(trials):
            if resolved.all():
                break
            chosen = rng.integers(0, n, size=sample_size)
            keep = np.zeros(n, dtype=bool)
            keep[chosen] = True
            s_sub = _mask_columns(s, keep)
            t_sub = _mask_rows(t, keep)
            p_sub = product(s_sub, t_sub, f"{phase}/scale{i}t{j}")
            used += 1
            candidates, n_used = unique_witnesses(
                clique, s_sub, t_sub, p_sub, product, phase=f"{phase}/scale{i}t{j}"
            )
            used += n_used
            # A candidate found in the subsample is only useful if the
            # subsample attains the true minimum there.
            candidates = np.where(p_sub == p, candidates, -1)
            absorb(candidates, f"{phase}/scale{i}t{j}-validate")

    if not resolved.all() and on_failure == "raise":
        missing = int((~resolved).sum())
        raise AlgorithmFailureError(
            f"witness search left {missing} pairs unresolved after "
            f"{used} products; increase trials_per_scale"
        )
    return WitnessResult(witnesses=witnesses, resolved=resolved, products_used=used)


__all__ = [
    "WitnessResult",
    "unique_witnesses",
    "find_witnesses",
    "ProductFn",
]
