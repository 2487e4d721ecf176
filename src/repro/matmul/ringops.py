"""Ring operations the bilinear clique algorithm is generic over.

Lemma 10 holds "over any ring R" with a ``b / log n`` width factor for
``b``-bit ring elements.  The two rings the paper uses:

* the **integers** (triangle/4-cycle counting, Seidel, Boolean products via
  thresholding) -- entries are scalars;
* the **capped polynomial ring** ``Z[X]`` of Lemma 18 (distance products with
  small entries) -- entries are coefficient vectors, carried as a trailing
  array axis.

A :class:`RingOps` instance tells the engine how to multiply assembled block
matrices and how many words a shipped entry costs; linear-combination steps
are plain tensor contractions and need no dispatch.
"""

from __future__ import annotations

import numpy as np

from repro.algebra.polynomial import poly_matmul, poly_matmul_batch
from repro.clique.messages import words_for_value


class RingOps:
    """Interface: local block product + honest per-entry word widths."""

    #: short identifier (reprs and algebra binding checks).
    name: str = "abstract"

    #: number of trailing array axes an entry occupies (0 for scalars).
    trailing_axes: int = 0

    def matmul(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def matmul_batch(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Batched block product over a leading batch axis.

        Semantically ``stack([matmul(x[b], y[b]) for b])`` with identical
        values.  Every concrete ring overrides this with a vectorised
        batch-axis kernel (one fused call per executor step); this generic
        loop remains only as the reference fallback for third-party rings
        and as the baseline the equivalence tests pin the kernels against.
        """
        return np.stack(
            [self.matmul(x[b], y[b]) for b in range(np.asarray(x).shape[0])]
        )

    def entry_words(self, arr: np.ndarray, word_bits: int) -> int:
        """Words per entry when shipping (a sub-tensor of) ``arr``."""
        raise NotImplementedError


class IntegerRingOps(RingOps):
    """Plain integer matrices (``int64``)."""

    name = "integer"
    trailing_axes = 0

    def matmul(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return x @ y

    def matmul_batch(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return np.matmul(x, y)

    def entry_words(self, arr: np.ndarray, word_bits: int) -> int:
        arr = np.asarray(arr)
        max_abs = int(np.max(np.abs(arr))) if arr.size else 0
        return words_for_value(max_abs, word_bits)


class PolynomialRingOps(RingOps):
    """Capped-degree polynomial matrices: shape ``(r, c, D)`` tensors.

    An entry is ``D`` integer coefficients, so it costs ``D *
    words(coefficient)`` words -- the explicit ``O(M)``-factor blow-up that
    Lemma 18's round bound charges.
    """

    name = "polynomial"
    trailing_axes = 1

    def matmul(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return poly_matmul(x, y)

    def matmul_batch(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return poly_matmul_batch(x, y)

    def entry_words(self, arr: np.ndarray, word_bits: int) -> int:
        arr = np.asarray(arr)
        max_abs = int(np.max(np.abs(arr))) if arr.size else 0
        return arr.shape[-1] * words_for_value(max_abs, word_bits)


#: Shared singleton instances.
INTEGER_RING = IntegerRingOps()
POLYNOMIAL_RING = PolynomialRingOps()


__all__ = [
    "RingOps",
    "IntegerRingOps",
    "PolynomialRingOps",
    "INTEGER_RING",
    "POLYNOMIAL_RING",
]
