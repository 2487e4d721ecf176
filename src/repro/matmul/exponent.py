"""Round-count predictors and exponent fitting.

The simulator's round charges are deterministic closed forms of the layout
parameters and entry widths, so each algorithm's cost can be *predicted*
exactly and cross-checked against the metered run -- the strongest form of
"reproducing Table 1" available to a simulation: measured == predicted, and
predicted grows with the paper's exponent.

:func:`fit_exponent` estimates the empirical growth exponent of a rounds-vs-n
series by least squares in log-log space; the Table 1 tests compare it
against the theoretical exponents in :mod:`repro.constants`.
"""

from __future__ import annotations

import numpy as np

from repro.algebra.bilinear import BilinearAlgorithm
from repro.clique.scheduling import relay_rounds
from repro.matmul.layout import CubeLayout, GridLayout


def predicted_semiring3d_rounds(
    n: int,
    *,
    entry_words_in: int = 1,
    entry_words_out: int | None = None,
    witness_words: int = 0,
) -> int:
    """Exact round count of :func:`repro.matmul.semiring3d.semiring_matmul`.

    ``entry_words_in`` is the word width of the widest input entry and
    ``entry_words_out`` of the widest partial-product entry (defaults to the
    input width, which holds e.g. for Boolean/min-plus data); pass
    ``witness_words=1`` when witnesses ride along.
    """
    layout = CubeLayout.for_clique(n)
    q = layout.q
    ew_out = entry_words_out if entry_words_out is not None else entry_words_in
    step1 = relay_rounds(2 * q**4 * entry_words_in, n)
    step3 = relay_rounds(q**4 * (ew_out + witness_words), n)
    return step1 + step3


def predicted_bilinear_rounds(
    n: int,
    algorithm: BilinearAlgorithm | None = None,
    *,
    d: int | None = None,
    m: int | None = None,
    entry_words_in: int = 1,
    entry_words_hat: int = 1,
    entry_words_prod: int = 1,
) -> int:
    """Exact round count of :func:`repro.matmul.bilinear_clique.bilinear_matmul`.

    The round count only depends on the algorithm's shape ``<d, .; m>``, so
    either pass an algorithm or its ``d``/``m`` directly -- the latter avoids
    materialising huge coefficient tensors when predicting at large ``n``.
    The three width parameters are the word widths of (a) input entries,
    (b) the encoded linear combinations of step 2, and (c) the block-product
    entries -- all ``1`` for small (e.g. 0/1) inputs at the default word size.

    Each step is billed on its busiest node.  Self-addressed pieces stay home
    for free, and padded rows carry nothing:

    * **steps 3 and 5** -- a worker exchanges one ``c x c`` cell (two in
      step 3) with each of the other ``n - 1`` nodes, whatever ``m <= n``;
    * **steps 1 and 7** -- a row's owner exchanges one piece with each of
      the ``q`` owners of the row's cells, and the owner of cell ``(x1, x2)``
      one with each real row of cell-row ``x1``; a piece holds ``dc``
      entries (per operand in step 1).  The busiest count is ``q`` or the
      real rows of cell-row ``0``: ``c`` per full block of ``cq`` rows plus
      up to ``c`` of the partial one.  At ``d = 1`` (``c = q``) every node
      owns a cell of its own row, and that piece stays home; at ``d >= 2``
      the owner of cell ``(0, c)`` does not.
    """
    if algorithm is not None:
        d, m = algorithm.d, algorithm.m
    if d is None or m is None:
        raise ValueError("pass an algorithm or both d and m")
    if m > n:
        raise ValueError(f"a bilinear algorithm with m={m} products needs m <= n={n}")
    layout = GridLayout.for_clique(n, d)
    q, c = layout.q, layout.c
    dc = layout.d * c
    full_blocks, partial = divmod(n, c * q)
    pieces = max(q, c * full_blocks + min(c, partial)) - (d == 1)
    cells = c * c * (n - 1)
    return (
        relay_rounds(2 * dc * pieces * entry_words_in, n)
        + relay_rounds(2 * cells * entry_words_hat, n)
        + relay_rounds(cells * entry_words_prod, n)
        + relay_rounds(dc * pieces * entry_words_prod, n)
    )


def fit_exponent(ns: list[int], values: list[float]) -> float:
    """Least-squares slope of ``log(values)`` against ``log(ns)``.

    The empirical growth exponent of a measured rounds-vs-n series; with
    fewer than two points the fit is undefined and ``nan`` is returned.
    """
    if len(ns) != len(values):
        raise ValueError("ns and values must have equal length")
    if len(ns) < 2:
        return float("nan")
    logs_n = np.log(np.asarray(ns, dtype=float))
    logs_v = np.log(np.maximum(np.asarray(values, dtype=float), 1e-9))
    slope, _intercept = np.polyfit(logs_n, logs_v, 1)
    return float(slope)


__all__ = [
    "predicted_semiring3d_rounds",
    "predicted_bilinear_rounds",
    "fit_exponent",
]
