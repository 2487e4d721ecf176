"""Capped-degree integer polynomial matrices for the Lemma 18 embedding.

Lemma 18 embeds the distance product of matrices with entries in
``{0, ..., M} + {inf}`` into a product over the polynomial ring ``Z[X]``:
entry ``w`` becomes the monomial ``X^w`` (``inf`` becomes the zero
polynomial), the matrices are multiplied over ``Z[X]``, and each distance is
recovered as the degree of the lowest non-zero monomial of the corresponding
product entry.  All polynomials involved have degree at most ``2 M``, so we
represent a polynomial matrix as an ``(r, c, D)`` coefficient tensor with
``D = 2 M + 1`` and no truncation is ever needed.

Coefficients count the number of inner indices attaining each sum, so they
are bounded by ``n`` and never cancel -- which is exactly why the recovery in
Lemma 18 is sound even when the product is computed by a ring algorithm such
as Strassen (which does subtract intermediate values but produces the exact
product).

The ring itself is :data:`POLYNOMIAL`: a
:class:`~repro.algebra.semirings.Semiring` with ``is_ring`` set, which the
§2.2 engine multiplies over like the integers.
"""

from __future__ import annotations

import numpy as np

from repro.algebra.semirings import Semiring
from repro.constants import INF


def encode_minplus(matrix: np.ndarray, max_entry: int, degree: int) -> np.ndarray:
    """Encode a distance matrix as a polynomial coefficient tensor.

    Entry ``w <= max_entry`` becomes ``X^w``; entries ``> max_entry``
    (including the ``INF`` sentinel) become the zero polynomial.  The trailing
    axis has size ``degree`` (callers pass ``2 * max_entry + 1`` so products
    fit exactly).
    """
    matrix = np.asarray(matrix, dtype=np.int64)
    if degree < max_entry + 1:
        raise ValueError(f"degree {degree} cannot hold entries up to {max_entry}")
    out = np.zeros(matrix.shape + (degree,), dtype=np.int64)
    finite = (matrix >= 0) & (matrix <= max_entry)
    rows, cols = np.nonzero(finite)
    out[rows, cols, matrix[rows, cols]] = 1
    return out


class PolynomialRing(Semiring):
    """Capped-degree polynomial matrices: ``(r, c, D)`` coefficient tensors.

    A ring, so the §2.2 bilinear engine multiplies over it directly; it has
    no identity or closure semantics the engine sessions use, so sessions
    bind it only for raw bilinear products.  An entry is ``D`` integer
    coefficients, so it costs ``D * words(coefficient)`` words -- the
    explicit ``O(M)``-factor blow-up that Lemma 18's round bound charges.
    """

    name = "polynomial"
    is_ring = True

    def matmul_batch(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """``(B, r, k, Da) x (B, k, c, Db) -> (B, r, c, Da + Db - 1)``.

        One *batched* integer GEMM per degree pair (the batch axis rides
        through ``np.matmul``), each accumulated into output degree
        ``i + j``.  The zero-coefficient skip tests the whole batch slice,
        so a skipped pair is zero in every block.
        """
        x = np.asarray(x)
        y = np.asarray(y)
        if (
            x.ndim != 4
            or y.ndim != 4
            or x.shape[0] != y.shape[0]
            or x.shape[2] != y.shape[1]
        ):
            raise ValueError(
                f"incompatible polynomial batch shapes {x.shape} x {y.shape}"
            )
        da = x.shape[3]
        db = y.shape[3]
        out = np.zeros(
            (x.shape[0], x.shape[1], y.shape[2], da + db - 1), dtype=np.int64
        )
        for i in range(da):
            xi = x[:, :, :, i]
            if not xi.any():
                continue
            for j in range(db):
                yj = y[:, :, :, j]
                if not yj.any():
                    continue
                out[:, :, :, i + j] += np.matmul(xi, yj)
        return out

    def add(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return a + b

    def entry_words(self, arr: np.ndarray, word_bits: int) -> int:
        return np.asarray(arr).shape[-1] * super().entry_words(arr, word_bits)


#: The Lemma 18 ring (a stateless singleton, like the semirings).
POLYNOMIAL = PolynomialRing()


def decode_minplus(poly: np.ndarray) -> np.ndarray:
    """Recover distances: the lowest degree with a non-zero coefficient.

    Entries whose polynomial is identically zero decode to
    :data:`~repro.constants.INF`.
    """
    nonzero = poly != 0
    has_any = nonzero.any(axis=2)
    first = np.argmax(nonzero, axis=2)
    return np.where(has_any, first, INF).astype(np.int64)


__all__ = [
    "PolynomialRing",
    "POLYNOMIAL",
    "encode_minplus",
    "decode_minplus",
]
