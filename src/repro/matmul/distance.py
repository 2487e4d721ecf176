"""Distance (min-plus) products on the clique (paper §3.3, Lemmas 18 & 20).

Three engines, mirroring the paper's trade-offs:

* :func:`distance_product` with ``method="semiring"`` -- the exact distance
  product via the §2.1 semiring engine: ``O(n^{1/3})`` rounds, witnesses for
  free (local arg-min).
* :func:`distance_product_ring` -- Lemma 18: for entries in
  ``{0..M} + {inf}``, embeds into the capped polynomial ring (entry ``w``
  becomes ``X^w``) and multiplies with the fast §2.2 engine:
  ``O(M n^{rho})`` rounds, the factor ``M`` being the polynomial width.
* :func:`approx_distance_product` -- Lemma 20: ``(1 + delta)``-approximate
  distance product via the scaling family ``S^{(i)} = ceil(S / (1+d)^i)``
  (entries capped at ``O(1/delta)``), one Lemma 18 product per scale, and an
  elementwise minimum of the rescaled results:
  ``O(n^{rho} log_{1+delta}(M) / delta)`` rounds.
"""

from __future__ import annotations

import math

import numpy as np

from repro.algebra.bilinear import BilinearAlgorithm
from repro.algebra.polynomial import POLYNOMIAL, decode_minplus, encode_minplus
from repro.algebra.semirings import MIN_PLUS
from repro.clique.model import CongestedClique
from repro.constants import INF
from repro.engine import EngineBindingError, EngineSession
from repro.matmul.bilinear_clique import bilinear_matmul
from repro.matmul.semiring3d import semiring_matmul


def distance_product(
    clique: CongestedClique,
    s: np.ndarray,
    t: np.ndarray,
    *,
    with_witnesses: bool = False,
    phase: str = "distance-product",
) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
    """Exact distance product via the 3D semiring engine (Theorem 1 + §3.3)."""
    return semiring_matmul(
        clique, s, t, MIN_PLUS, with_witnesses=with_witnesses, phase=phase
    )


class RingDistanceSession(EngineSession):
    """Lemma 18 as an engine session: min-plus products on the §2.2 engine.

    Binds the capped polynomial embedding once -- entries in
    ``{0..max_entry} + {inf}`` become monomials, products run on the
    bilinear ring engine, and results decode back to distances.  The
    session's ``closure`` loop then works unchanged with min-plus merge
    semantics, which is exactly how Lemma 19 iterates capped squarings.
    """

    def __init__(
        self,
        clique: CongestedClique,
        max_entry: int,
        *,
        algorithm: BilinearAlgorithm | None = None,
    ) -> None:
        if max_entry < 0:
            raise ValueError(f"max_entry must be >= 0, got {max_entry}")
        super().__init__(clique, "bilinear", POLYNOMIAL, algorithm=algorithm)
        # The transport ring is internal; the closure merges in min-plus.
        self.algebra = MIN_PLUS
        self.max_entry = max_entry

    def multiply(
        self,
        x: np.ndarray,
        y: np.ndarray,
        *,
        with_witnesses: bool = False,
        phase: str = "lemma18",
    ) -> np.ndarray:
        if with_witnesses:
            raise EngineBindingError(
                "Lemma 18 products have no native witnesses (Lemma 21 "
                "recovers them; see repro.matmul.witnesses)"
            )
        degree = self.max_entry + 1
        es = encode_minplus(np.asarray(x, dtype=np.int64), self.max_entry, degree)
        et = encode_minplus(np.asarray(y, dtype=np.int64), self.max_entry, degree)
        product = bilinear_matmul(
            self.clique, es, et, self.algorithm, ring=POLYNOMIAL, phase=phase,
            arena=self.arena,
        )
        return decode_minplus(product)


def distance_product_ring(
    clique: CongestedClique,
    s: np.ndarray,
    t: np.ndarray,
    max_entry: int,
    algorithm: BilinearAlgorithm | None = None,
    *,
    phase: str = "lemma18",
) -> np.ndarray:
    """Lemma 18: distance product of small-entry matrices over a ring.

    Entries of ``s`` and ``t`` strictly above ``max_entry`` are treated as
    ``+inf`` (this is how the iterated-squaring callers cap distances).
    Output entries are exact distances ``<= 2 max_entry`` or ``INF``.
    One-shot wrapper over :class:`RingDistanceSession`.
    """
    return RingDistanceSession(clique, max_entry, algorithm=algorithm).multiply(
        s, t, phase=phase
    )


def scaling_levels(max_entry: int, delta: float) -> int:
    """Number of scales Lemma 20 needs: ``1 + ceil(log_{1+delta} M)``."""
    if delta <= 0:
        raise ValueError(f"delta must be positive, got {delta}")
    if max_entry <= 1:
        return 1
    return 1 + math.ceil(math.log(max_entry) / math.log(1.0 + delta))


def approx_distance_product(
    clique: CongestedClique,
    s: np.ndarray,
    t: np.ndarray,
    delta: float,
    algorithm: BilinearAlgorithm | None = None,
    *,
    phase: str = "lemma20",
) -> np.ndarray:
    """Lemma 20: ``(1 + delta)``-approximate distance product.

    Returns ``P~`` with ``P <= P~ <= (1 + delta) P`` entrywise, where ``P``
    is the true distance product.  Rounds:
    ``O(n^{rho} log_{1+delta}(M) / delta)`` -- one capped Lemma 18 product
    per scale ``i``, each with entries bounded by ``ceil(2 (1+delta)/delta)``.
    """
    s = np.asarray(s, dtype=np.int64)
    t = np.asarray(t, dtype=np.int64)
    finite_max = 0
    for mat in (s, t):
        finite = mat[mat < INF]
        if finite.size:
            finite_max = max(finite_max, int(finite.max()))
    # Every node learns the global magnitude bound (1 broadcast round); the
    # scale family below is then agreed upon by all nodes.
    clique.broadcast_rows(
        np.full(clique.n, finite_max), widths=[1] * clique.n, phase=f"{phase}/max"
    )

    levels = scaling_levels(finite_max, delta)
    capped = math.ceil(2.0 * (1.0 + delta) / delta)
    # One Lemma 18 session serves every scale: the cap (and so the
    # polynomial degree, layouts and plans) is scale-independent.
    session = RingDistanceSession(clique, capped, algorithm=algorithm)
    best = np.full(s.shape[:2], INF, dtype=np.int64)
    for i in range(levels):
        scale = (1.0 + delta) ** i
        bound = 2.0 * (1.0 + delta) ** (i + 1) / delta
        s_i = _scaled(s, scale, bound)
        t_i = _scaled(t, scale, bound)
        p_i = session.multiply(s_i, t_i, phase=f"{phase}/scale{i}")
        finite = p_i < INF
        candidate = np.full_like(best, INF)
        candidate[finite] = np.floor(scale * p_i[finite]).astype(np.int64)
        best = np.minimum(best, candidate)
    return best


def _scaled(matrix: np.ndarray, scale: float, bound: float) -> np.ndarray:
    """The Lemma 20 scaled matrix: ``ceil(x / scale)`` where ``x <= bound``."""
    out = np.full(matrix.shape, INF, dtype=np.int64)
    keep = (matrix < INF) & (matrix <= bound)
    out[keep] = np.ceil(matrix[keep] / scale).astype(np.int64)
    return out


__all__ = [
    "distance_product",
    "distance_product_ring",
    "RingDistanceSession",
    "approx_distance_product",
    "scaling_levels",
]
