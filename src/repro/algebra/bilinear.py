"""Bilinear matrix-multiplication algorithms (paper §2.2, equations (1)-(2)).

A bilinear algorithm ``<d, d, d; m>`` multiplies two ``d x d`` block matrices
using ``m`` block multiplications:

.. math::

    \\hat S^{(w)} = \\sum_{ij} \\alpha_{ijw} S_{ij},\\qquad
    \\hat T^{(w)} = \\sum_{ij} \\beta_{ijw} T_{ij},\\qquad
    P_{ij} = \\sum_w \\lambda_{ijw} \\hat S^{(w)} \\hat T^{(w)}.

Lemma 10 turns any such algorithm into an ``O(n^{1 - 2/sigma})``-round clique
algorithm where ``m = O(d^sigma)``.  The instances provided:

* :data:`STRASSEN` -- Strassen's ``<2,2,2;7>`` algorithm (sigma = log2 7);
* :func:`strassen_power` -- its Kronecker powers ``<2^l, 2^l, 2^l; 7^l>``,
  which is how the recursive algorithm is expressed as a single bilinear
  form (the form Lemma 10 consumes);
* :func:`classical` -- the school-book ``<d,d,d; d^3>`` algorithm (sigma = 3),
  used as an ablation: running §2.2 with it reproduces the §2.1 exponent.

Coefficients are small integers, so all arithmetic stays in ``int64``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class BilinearAlgorithm:
    """An explicit ``<d, d, d; m>`` bilinear matrix multiplication algorithm.

    Attributes:
        name: human-readable identifier.
        d: block grid dimension.
        m: number of block multiplications.
        alpha: shape ``(m, d, d)``; coefficients of S in equation (1).
        beta: shape ``(m, d, d)``; coefficients of T in equation (1).
        lam: shape ``(d, d, m)``; decoding coefficients in equation (2).
    """

    name: str
    d: int
    m: int
    alpha: np.ndarray
    beta: np.ndarray
    lam: np.ndarray

    def __post_init__(self) -> None:
        if self.alpha.shape != (self.m, self.d, self.d):
            raise ValueError(f"alpha must be (m, d, d), got {self.alpha.shape}")
        if self.beta.shape != (self.m, self.d, self.d):
            raise ValueError(f"beta must be (m, d, d), got {self.beta.shape}")
        if self.lam.shape != (self.d, self.d, self.m):
            raise ValueError(f"lam must be (d, d, m), got {self.lam.shape}")

    @property
    def sigma(self) -> float:
        """The exponent this algorithm realises: ``log_d(m)``."""
        if self.d <= 1:
            raise ValueError("sigma undefined for d <= 1")
        return math.log(self.m) / math.log(self.d)

    def encode_matrices(self) -> tuple[np.ndarray, np.ndarray]:
        """``alpha`` and ``beta`` flattened to ``(m, d*d)`` encode matrices."""
        return (
            self.alpha.reshape(self.m, self.d * self.d),
            self.beta.reshape(self.m, self.d * self.d),
        )

    def decode_matrix(self) -> np.ndarray:
        """``lam`` flattened to ``(d*d, m)`` decode matrix."""
        return self.lam.reshape(self.d * self.d, self.m)

    def compose(self, other: "BilinearAlgorithm") -> "BilinearAlgorithm":
        """Kronecker (tensor) composition: ``<d1 d2, .; m1 m2>``.

        Applying the composed algorithm is equivalent to one recursion level
        of ``self`` whose block multiplications are performed by ``other``;
        iterating from a base algorithm yields its recursive closure as a
        single bilinear form.
        """
        a = np.einsum("wij,WIJ->wWiIjJ", self.alpha, other.alpha)
        b = np.einsum("wij,WIJ->wWiIjJ", self.beta, other.beta)
        lam = np.einsum("ijw,IJW->iIjJwW", self.lam, other.lam)
        d = self.d * other.d
        m = self.m * other.m
        return BilinearAlgorithm(
            name=f"{self.name}(x){other.name}",
            d=d,
            m=m,
            alpha=a.reshape(m, d, d),
            beta=b.reshape(m, d, d),
            lam=lam.reshape(d, d, m),
        )


def classical(d: int) -> BilinearAlgorithm:
    """The school-book ``<d, d, d; d^3>`` bilinear algorithm (sigma = 3)."""
    if d < 1:
        raise ValueError(f"d must be positive, got {d}")
    m = d**3
    alpha = np.zeros((m, d, d), dtype=np.int64)
    beta = np.zeros((m, d, d), dtype=np.int64)
    lam = np.zeros((d, d, m), dtype=np.int64)
    w = 0
    for i in range(d):
        for j in range(d):
            for k in range(d):
                alpha[w, i, k] = 1
                beta[w, k, j] = 1
                lam[i, j, w] = 1
                w += 1
    return BilinearAlgorithm(
        name=f"classical-{d}", d=d, m=m, alpha=alpha, beta=beta, lam=lam
    )


def _strassen_base() -> BilinearAlgorithm:
    """Strassen's ``<2,2,2;7>`` algorithm [66]."""
    alpha = np.zeros((7, 2, 2), dtype=np.int64)
    beta = np.zeros((7, 2, 2), dtype=np.int64)
    lam = np.zeros((2, 2, 7), dtype=np.int64)
    # M1 = (A11 + A22)(B11 + B22)
    alpha[0, 0, 0] = alpha[0, 1, 1] = 1
    beta[0, 0, 0] = beta[0, 1, 1] = 1
    # M2 = (A21 + A22) B11
    alpha[1, 1, 0] = alpha[1, 1, 1] = 1
    beta[1, 0, 0] = 1
    # M3 = A11 (B12 - B22)
    alpha[2, 0, 0] = 1
    beta[2, 0, 1] = 1
    beta[2, 1, 1] = -1
    # M4 = A22 (B21 - B11)
    alpha[3, 1, 1] = 1
    beta[3, 1, 0] = 1
    beta[3, 0, 0] = -1
    # M5 = (A11 + A12) B22
    alpha[4, 0, 0] = alpha[4, 0, 1] = 1
    beta[4, 1, 1] = 1
    # M6 = (A21 - A11)(B11 + B12)
    alpha[5, 1, 0] = 1
    alpha[5, 0, 0] = -1
    beta[5, 0, 0] = beta[5, 0, 1] = 1
    # M7 = (A12 - A22)(B21 + B22)
    alpha[6, 0, 1] = 1
    alpha[6, 1, 1] = -1
    beta[6, 1, 0] = beta[6, 1, 1] = 1
    # C11 = M1 + M4 - M5 + M7
    lam[0, 0, 0] = 1
    lam[0, 0, 3] = 1
    lam[0, 0, 4] = -1
    lam[0, 0, 6] = 1
    # C12 = M3 + M5
    lam[0, 1, 2] = 1
    lam[0, 1, 4] = 1
    # C21 = M2 + M4
    lam[1, 0, 1] = 1
    lam[1, 0, 3] = 1
    # C22 = M1 - M2 + M3 + M6
    lam[1, 1, 0] = 1
    lam[1, 1, 1] = -1
    lam[1, 1, 2] = 1
    lam[1, 1, 5] = 1
    return BilinearAlgorithm(
        name="strassen", d=2, m=7, alpha=alpha, beta=beta, lam=lam
    )


#: Strassen's ``<2,2,2;7>`` algorithm.
STRASSEN = _strassen_base()

_POWER_CACHE: dict[int, BilinearAlgorithm] = {}


def strassen_power(level: int) -> BilinearAlgorithm:
    """The ``level``-fold Kronecker power ``<2^l, 2^l, 2^l; 7^l>``.

    ``level = 0`` is the trivial ``<1,1,1;1>`` algorithm (scalar product).
    Results are cached -- the tensors are small (``7^l x 4^l`` entries).
    """
    if level < 0:
        raise ValueError(f"level must be >= 0, got {level}")
    if level not in _POWER_CACHE:
        if level == 0:
            one = np.ones((1, 1, 1), dtype=np.int64)
            _POWER_CACHE[0] = BilinearAlgorithm(
                name="trivial", d=1, m=1, alpha=one, beta=one, lam=one
            )
        else:
            _POWER_CACHE[level] = strassen_power(level - 1).compose(STRASSEN)
    return _POWER_CACHE[level]


def largest_strassen_level(n: int) -> int:
    """The largest ``l`` with ``7^l <= n`` -- how Lemma 10 picks ``m(d) = n``.

    The clique algorithm assigns each of the ``m`` block products to its own
    node, so it uses the deepest Strassen power whose product count fits in
    the clique.
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    level = 0
    while 7 ** (level + 1) <= n:
        level += 1
    return level


__all__ = [
    "BilinearAlgorithm",
    "classical",
    "STRASSEN",
    "strassen_power",
    "largest_strassen_level",
]
