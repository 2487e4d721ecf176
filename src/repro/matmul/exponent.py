"""Round-count predictors and exponent fitting.

The simulator's round charges are deterministic closed forms of the layout
parameters and entry widths, so each algorithm's cost can be *predicted*
exactly and cross-checked against the metered run -- the strongest form of
"reproducing Table 1" available to a simulation: measured == predicted, and
predicted grows with the paper's exponent.

:func:`fit_exponent` estimates the empirical growth exponent of a rounds-vs-n
series by least squares in log-log space; the benchmark harness compares it
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
    """
    if algorithm is not None:
        d, m = algorithm.d, algorithm.m
    if d is None or m is None:
        raise ValueError("pass an algorithm or both d and m")
    layout = GridLayout.for_clique(n, d)
    q, d, c, mm = layout.q, layout.d, layout.c, layout.m_padded
    dc = d * c
    qc = q * c
    step1 = relay_rounds(max(2 * mm * entry_words_in, 2 * dc * dc * entry_words_in), n)
    step3 = relay_rounds(
        max(2 * m * c * c * entry_words_hat, 2 * qc * qc * entry_words_hat), n
    )
    step5 = relay_rounds(
        max(qc * qc * entry_words_prod, m * c * c * entry_words_prod), n
    )
    step7 = relay_rounds(
        max(dc * dc * entry_words_prod, q * dc * entry_words_prod), n
    )
    return step1 + step3 + step5 + step7


def predicted_naive_rounds(n: int, *, entry_words: int = 1) -> int:
    """Round count of the broadcast baseline: one row of ``T`` per node."""
    return n * entry_words


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
    "predicted_naive_rounds",
    "fit_exponent",
]
