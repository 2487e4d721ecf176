"""Index partitioning schemes for the distributed matmul algorithms.

Reproduces the paper's Figures 1 and 2 as code:

* :class:`CubeLayout` -- §2.1's view of each node ``v`` as a three-digit
  base-``n^{1/3}`` number ``v1 v2 v3``, with the wild-card index sets
  ``x**`` (all nodes whose first digit is ``x``, a contiguous range of ids).
* :class:`GridLayout` -- §2.2's two-level partition: a ``d x d`` grid of
  blocks, each subdivided into a ``q x q`` grid of ``c x c`` cells, with
  node ``v`` labelled ``(x1, x2) = (v div q, v mod q)`` and owning cell
  ``(x1, x2)`` of every block.

The paper assumes "for convenience" that ``n^{1/3}`` (resp. ``n^{1/2}`` with
``d`` dividing it) is an integer.  We keep the clique-size requirements
(:func:`next_cube`, :func:`next_square` lift arbitrary problem sizes by
padding onto a slightly larger clique) but drop the divisibility requirement
``d | q`` by padding the *matrix* to ``M = d * q * c`` with ``c = ceil(q/d)``;
padded rows and columns are all-zero and are materialised locally by
receivers, so the padding costs no communication.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np


def exact_cbrt(n: int) -> int | None:
    """The integer cube root of ``n``, or ``None`` if ``n`` is not a cube."""
    q = round(n ** (1.0 / 3.0))
    for candidate in (q - 1, q, q + 1):
        if candidate >= 1 and candidate**3 == n:
            return candidate
    return None


def exact_sqrt(n: int) -> int | None:
    """The integer square root of ``n``, or ``None`` if not a square."""
    q = math.isqrt(n)
    return q if q * q == n else None


def next_cube(n: int) -> int:
    """Smallest perfect cube ``>= n`` (the clique size §2.1 runs on)."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    q = 1
    while q**3 < n:
        q += 1
    return q**3


def next_square(n: int) -> int:
    """Smallest perfect square ``>= n`` (the clique size §2.2 runs on)."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    q = math.isqrt(n - 1) + 1
    return q * q


@dataclass(frozen=True)
class CubeLayout:
    """§2.1 node indexing on a clique of ``n = q^3`` nodes.

    Node ``v`` has digits ``(v1, v2, v3)`` in base ``q`` (``v1`` most
    significant).  The index set ``x**`` -- all nodes with first digit
    ``x`` -- is the contiguous range ``[x q^2, (x+1) q^2)``; because all
    submatrices §2.1 ships are indexed by such sets, every payload is a
    contiguous NumPy slice.
    """

    n: int
    q: int

    @classmethod
    def for_clique(cls, n: int) -> "CubeLayout":
        # Memoised: repeated squarings (APSP runs O(log n) products on the
        # same clique) share one immutable layout instead of re-deriving it.
        return _cube_layout_for_clique(n)

    def digits(self, v: int) -> tuple[int, int, int]:
        """The base-``q`` digits ``(v1, v2, v3)`` of node ``v``."""
        q = self.q
        return v // (q * q), (v // q) % q, v % q

    def node(self, v1: int, v2: int, v3: int) -> int:
        """Node id with the given digits."""
        return (v1 * self.q + v2) * self.q + v3

    def first_digit_range(self, x: int) -> tuple[int, int]:
        """The contiguous id range of the set ``x**`` as ``(start, stop)``."""
        q2 = self.q * self.q
        return x * q2, (x + 1) * q2


@lru_cache(maxsize=None)
def _cube_layout_for_clique(n: int) -> "CubeLayout":
    q = exact_cbrt(n)
    if q is None:
        from repro.errors import CliqueSizeError

        raise CliqueSizeError(
            f"the 3D semiring algorithm needs a perfect-cube clique; "
            f"got n={n} (use next_cube({n})={next_cube(n)})"
        )
    return CubeLayout(n=n, q=q)


@dataclass(frozen=True)
class GridLayout:
    """§2.2 two-level partition on a clique of ``n = q^2`` nodes.

    Attributes:
        n: clique size, a perfect square.
        q: ``sqrt(n)``; node ``v`` has label ``(v div q, v mod q)``.
        d: block grid dimension of the bilinear algorithm.
        c: cell side, ``ceil(q / d)``.
        m_padded: padded matrix dimension ``d * q * c >= n``.
    """

    n: int
    q: int
    d: int
    c: int
    m_padded: int

    @classmethod
    def for_clique(cls, n: int, d: int) -> "GridLayout":
        # Memoised like CubeLayout.for_clique: iterated ring products reuse
        # the same immutable grid description.
        return _grid_layout_for_clique(n, d)

    def indices_of_cell_axis(self, x: int) -> np.ndarray:
        """All padded rows (equivalently columns) in cell-row/col ``x``.

        Shape ``(d * c,)``, ordered by block index then offset, which is the
        payload layout used throughout §2.2's steps.
        """
        block_rows = self.c * self.q
        offsets = np.arange(self.c)
        blocks = np.arange(self.d) * block_rows
        return (blocks[:, None] + x * self.c + offsets[None, :]).reshape(-1)


@lru_cache(maxsize=None)
def _grid_layout_for_clique(n: int, d: int) -> "GridLayout":
    q = exact_sqrt(n)
    if q is None:
        from repro.errors import CliqueSizeError

        raise CliqueSizeError(
            f"the bilinear algorithm needs a perfect-square clique; "
            f"got n={n} (use next_square({n})={next_square(n)})"
        )
    if d < 1 or d > q:
        from repro.errors import CliqueSizeError

        raise CliqueSizeError(
            f"block dimension d={d} must satisfy 1 <= d <= sqrt(n)={q}"
        )
    c = math.ceil(q / d)
    return GridLayout(n=n, q=q, d=d, c=c, m_padded=d * q * c)


__all__ = [
    "exact_cbrt",
    "exact_sqrt",
    "next_cube",
    "next_square",
    "CubeLayout",
    "GridLayout",
]
