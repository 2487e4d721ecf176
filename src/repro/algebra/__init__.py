"""Algebraic foundations: semirings, bilinear algorithms, polynomial rings.

The paper's engine room.  §2.1 needs semirings with block products
(:mod:`repro.algebra.semirings`); §2.2 needs explicit bilinear algorithms
(:mod:`repro.algebra.bilinear`), instantiated with Strassen's ``<2,2,2;7>``
and its Kronecker powers; Lemma 18 needs the capped polynomial ring
(:data:`~repro.algebra.polynomial.POLYNOMIAL`, a semiring with subtraction
like :data:`PLUS_TIMES`).
"""

from repro.algebra.bilinear import (
    STRASSEN,
    BilinearAlgorithm,
    classical,
    largest_strassen_level,
    strassen_power,
)
from repro.algebra.polynomial import POLYNOMIAL
from repro.algebra.semirings import (
    ALL_SEMIRINGS,
    BOOLEAN,
    MAX_MIN,
    MIN_PLUS,
    PLUS_TIMES,
    Semiring,
)

__all__ = [
    "Semiring",
    "PLUS_TIMES",
    "BOOLEAN",
    "MIN_PLUS",
    "MAX_MIN",
    "POLYNOMIAL",
    "ALL_SEMIRINGS",
    "BilinearAlgorithm",
    "STRASSEN",
    "classical",
    "strassen_power",
    "largest_strassen_level",
]
