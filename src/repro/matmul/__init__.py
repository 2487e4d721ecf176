"""Distributed matrix multiplication -- the paper's primary contribution.

Theorem 1 in code: :func:`semiring_matmul` (§2.1, ``O(n^{1/3})`` rounds over
any semiring) and :func:`bilinear_matmul` (§2.2 / Lemma 10,
``O(n^{1-2/sigma})`` rounds over rings).  On top of them, the distance
products of §3.3 (exact, Lemma 18 ring-embedded, Lemma 20 approximate) and
the §3.4 witness machinery.
"""

from repro.matmul.bilinear_clique import bilinear_matmul, default_algorithm
from repro.matmul.distance import (
    RingDistanceSession,
    approx_distance_product,
    distance_product,
    distance_product_ring,
    scaling_levels,
)
from repro.matmul.exponent import (
    fit_exponent,
    predicted_bilinear_rounds,
    predicted_semiring3d_rounds,
)
from repro.matmul.layout import CubeLayout, GridLayout, next_cube, next_square
from repro.matmul.boolean_witnesses import encode_boolean, find_boolean_witnesses
from repro.matmul.naive import broadcast_matmul
from repro.matmul.semiring3d import semiring_matmul
from repro.matmul.witnesses import WitnessResult, find_witnesses, unique_witnesses

__all__ = [
    "semiring_matmul",
    "bilinear_matmul",
    "default_algorithm",
    "broadcast_matmul",
    "distance_product",
    "distance_product_ring",
    "RingDistanceSession",
    "approx_distance_product",
    "scaling_levels",
    "find_witnesses",
    "unique_witnesses",
    "find_boolean_witnesses",
    "encode_boolean",
    "WitnessResult",
    "CubeLayout",
    "GridLayout",
    "next_cube",
    "next_square",
    "predicted_semiring3d_rounds",
    "predicted_bilinear_rounds",
    "fit_exponent",
]
