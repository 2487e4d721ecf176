"""The seed's cube kernels, kept as test oracles for the semiring products.

Every semiring product in :mod:`repro.algebra.semirings` is a blocked or
packed kernel that never materialises the ``(m, k, n)`` cube of elementary
products.  The seed implementation did: it formed the whole cube and took
one global ``argmin`` / ``argmax`` (or ``any``).  Those kernels live on
here, independent of every tile, pack and walk in ``src/``, so the suite
can keep asserting that the fast kernels return bit-identical values and
witness tie-breaks:

* :func:`cube_matmul_with_witness` -- min-plus and max-min, with witnesses;
* :func:`cube_matmul` -- the Boolean AND cube reduced with ``any``;
* :func:`reference_matmul` -- one centralised product per semiring;
* :func:`poly_matmul` -- one polynomial-matrix block product, the oracle
  for the batched polynomial ring kernel, and :func:`ring_matmul`, which
  multiplies one block over either ring the §2.2 engine runs on.

Two helpers reach a particular branch of a ``src/`` kernel, so one shape
can be checked on both sides of a dispatch: :func:`boolean_gemm` forces the
Boolean GEMM tile, and :func:`column_walk` calls the selection semirings'
exact fallback walk directly.

:func:`add_with_witness` and :func:`fold_with_witness` are the §2.1
engine's old step-4 recombination, a strict-improvement left fold over the
``q`` partial products, kept as the oracle for the one-reduction step 4
of :func:`repro.matmul.semiring3d.semiring_matmul`.
"""

from __future__ import annotations

import math
from unittest import mock

import numpy as np

from repro.algebra.polynomial import POLYNOMIAL
from repro.algebra.semirings import (
    BOOLEAN,
    MAX_MIN,
    MIN_PLUS,
    BooleanSemiring,
    Semiring,
    _SelectionSemiring,
    saturating_add,
)


def _block_operands(x, y) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(x, dtype=np.int64)
    y = np.asarray(y, dtype=np.int64)
    if x.ndim != 2 or y.ndim != 2 or x.shape[1] != y.shape[0]:
        raise ValueError(
            f"incompatible block shapes {x.shape} x {y.shape} for a product"
        )
    return x, y


def cube_matmul_with_witness(
    semiring: Semiring, x, y
) -> tuple[np.ndarray, np.ndarray]:
    """The seed's cube-materialising selection product.

    Materialises the full ``(m, k, n)`` slab of elementary products and
    takes one global ``argmin`` (min-plus) or ``argmax`` (max-min), so the
    lowest attaining inner index wins ties.  Needs ``k >= 1``.
    """
    x, y = _block_operands(x, y)
    if semiring is MIN_PLUS:
        values = saturating_add(x[:, :, None], y[None, :, :])
        witness = np.argmin(values, axis=1)
    elif semiring is MAX_MIN:
        values = np.minimum(x[:, :, None], y[None, :, :])
        witness = np.argmax(values, axis=1)
    else:
        raise ValueError(f"{semiring.name} has no cube witness oracle")
    product = np.take_along_axis(values, witness[:, None, :], axis=1)[:, 0, :]
    return product, witness


def cube_matmul(x, y) -> np.ndarray:
    """The seed's Boolean product: the full AND cube reduced with ``any``."""
    x, y = _block_operands(x, y)
    values = (x[:, :, None] > 0) & (y[None, :, :] > 0)
    return values.any(axis=1).astype(np.int64)


def reference_matmul(semiring: Semiring, s, t) -> np.ndarray:
    """Centralised single-shot semiring product.

    The cube kernel for the selection semirings, and plain ``int64``
    arithmetic for the Boolean semiring and the integer ring.
    """
    s, t = _block_operands(s, t)
    if semiring.has_witnesses:
        return cube_matmul_with_witness(semiring, s, t)[0]
    if semiring is BOOLEAN:
        return ((s @ t) > 0).astype(np.int64)
    return s @ t


def poly_matmul(a, b) -> np.ndarray:
    """Product of polynomial matrices: matrix product with convolution entries.

    ``a`` is ``(r, k, Da)`` and ``b`` is ``(k, c, Db)``; the result is
    ``(r, c, Da + Db - 1)``, one integer matrix product per degree pair.
    """
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    da = a.shape[2]
    db = b.shape[2]
    out = np.zeros((a.shape[0], b.shape[1], da + db - 1), dtype=np.int64)
    for i in range(da):
        for j in range(db):
            out[:, :, i + j] += a[:, :, i] @ b[:, :, j]
    return out


def ring_matmul(ring: Semiring, x, y) -> np.ndarray:
    """One ring block product: :func:`poly_matmul` or plain ``@``."""
    if ring is POLYNOMIAL:
        return poly_matmul(x, y)
    return np.asarray(x, dtype=np.int64) @ np.asarray(y, dtype=np.int64)


def boolean_gemm(x, y) -> np.ndarray:
    """``BOOLEAN.matmul`` forced onto its ``float32`` GEMM tile at any shape.

    The dispatch takes the bit-packed kernel once a block's work reaches
    ``PACKED_MIN_WORK``; an infinite floor keeps every block on GEMM.
    """
    with mock.patch.object(BooleanSemiring, "PACKED_MIN_WORK", math.inf):
        return BOOLEAN.matmul(x, y)


def column_walk(
    semiring: Semiring, x, y
) -> tuple[np.ndarray, np.ndarray]:
    """The batched column walk: the narrow-lane fold's exact fallback."""
    x = np.asarray(x, dtype=np.int64)
    y = np.asarray(y, dtype=np.int64)
    shape = (x.shape[0], x.shape[1], y.shape[2])
    values = np.empty(shape, dtype=np.int64)
    witness = np.empty(shape, dtype=np.int64)
    _SelectionSemiring._walk(semiring, x, y, values, witness)
    return values, witness



def add_with_witness(
    semiring: _SelectionSemiring, a, wa, b, wb
) -> tuple[np.ndarray, np.ndarray]:
    """Elementwise selection carrying witnesses: ``b`` wins only strictly."""
    take_b = semiring.better(b, a)
    return np.where(take_b, b, a), np.where(take_b, wb, wa)


def fold_with_witness(
    semiring: _SelectionSemiring, values, witnesses
) -> tuple[np.ndarray, np.ndarray]:
    """Left-fold ``add_with_witness`` over axis 1 of ``(B, q, ...)`` stacks.

    The lowest index along axis 1 attaining each selected value supplies
    its witness.
    """
    acc, acc_w = values[:, 0], witnesses[:, 0]
    for i in range(1, values.shape[1]):
        acc, acc_w = add_with_witness(
            semiring, acc, acc_w, values[:, i], witnesses[:, i]
        )
    return acc, acc_w
