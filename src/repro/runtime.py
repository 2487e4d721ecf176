"""Shared runtime glue between graphs and the engine sessions.

Graph algorithms in the paper implicitly assume the clique size has whatever
arithmetic shape the matmul engine needs ("assume for convenience that
``n^{1/3}`` is an integer").  This module centralises the lifting: an
``n``-node graph problem runs on the smallest valid clique ``N >= n`` for
the chosen engine, with matrices padded by isolated nodes (all-zero
adjacency rows / all-``INF`` weight rows), which changes no answers and only
inflates constants.

It also provides :class:`RunResult`, the uniform return type of every
application-level algorithm: the answer plus the communication bill.

Engine dispatch lives in :mod:`repro.engine`: algorithms bind an
:class:`~repro.engine.EngineSession` (clique + matmul method + algebra) and
drive it through ``multiply``/``square``/``closure``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.clique.accounting import CostMeter
from repro.clique.model import or_broadcast, sum_broadcast
from repro.constants import INF
from repro.engine import (
    MATMUL_METHODS,
    EngineSession,
    make_clique,
    open_session,
    required_clique_size,
)


@dataclass
class RunResult:
    """The outcome of one distributed computation.

    Attributes:
        value: the algorithm's answer (count, boolean, matrix, ...).
        rounds: total congested-clique rounds consumed.
        clique_size: the (possibly padded) clique the run used.
        meter: the full per-phase cost breakdown.
        extras: algorithm-specific diagnostics (e.g. approximation ratio
            bounds, recursion depth, trial counts).
    """

    value: Any
    rounds: int
    clique_size: int
    meter: CostMeter
    extras: dict[str, Any] = field(default_factory=dict)


#: Module-level generator behind ``seed=None``: it advances across calls,
#: so back-to-back randomised runs (e.g. repeated colour-coding trial
#: batches) explore fresh randomness instead of replaying the first batch.
_SHARED_RNG = np.random.default_rng()


def resolve_rng(
    rng: np.random.Generator | None = None, seed: int | None = 0
) -> np.random.Generator:
    """The one rng-resolution rule every randomised algorithm threads through.

    An explicit ``rng`` always wins.  Otherwise ``seed`` picks a freshly
    seeded generator -- the default ``seed=0`` keeps every call
    reproducible, which is what the test suites and the CLI rely on --
    while ``seed=None`` selects the shared module-level stream, which
    *advances across calls*: repeated trial batches then buy genuinely new
    coverage instead of re-running identical draws (the bug this replaces
    was a ``default_rng(0)`` constructed inside each call).
    """
    if rng is not None:
        return rng
    if seed is None:
        return _SHARED_RNG
    return np.random.default_rng(seed)


def pad_matrix(matrix: np.ndarray, size: int, fill: int = 0) -> np.ndarray:
    """Zero/INF-pad a square matrix up to ``size`` (isolated virtual nodes).

    The diagonal of the padded region is forced to ``0`` so that padded
    weight matrices remain valid (``W[u, u] = 0``).
    """
    matrix = np.asarray(matrix, dtype=np.int64)
    n = matrix.shape[0]
    if size < n:
        raise ValueError(f"cannot pad {n} down to {size}")
    if size == n:
        return matrix.copy()
    out = np.full((size, size), fill, dtype=np.int64)
    out[:n, :n] = matrix
    if fill != 0:
        idx = np.arange(n, size)
        out[idx, idx] = 0
    return out


__all__ = [
    "RunResult",
    "MATMUL_METHODS",
    "EngineSession",
    "open_session",
    "required_clique_size",
    "make_clique",
    "pad_matrix",
    "resolve_rng",
    "or_broadcast",
    "sum_broadcast",
    "INF",
]
