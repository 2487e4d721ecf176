"""Matrix powers on the clique: the iterated-squaring workhorse.

Every distance/reachability algorithm in §3 is "compute a matrix power by
repeated squaring"; the pattern lives on
:class:`~repro.engine.EngineSession` (``power``/``closure``) so downstream
users don't re-implement the loop.  This module keeps the function-style
entry points:

* :func:`matrix_power` -- ``A^k`` over any semiring via binary
  exponentiation, ``O(log k)`` products;
* :func:`closure` -- ``A^{>=1}`` summed under the semiring's addition up to
  path length ``n`` (transitive closure over the Boolean semiring, all-pairs
  distances over min-plus), ``O(log n)`` squarings.

Engine selection matches :mod:`repro.engine`: pass ``method`` (or a bound
``session``) to run rings on the fast §2.2 engine instead of the default
§2.1 semiring engine -- e.g. ``matrix_power(clique, a, k, PLUS_TIMES,
method="bilinear")`` squares through Strassen farms.
"""

from __future__ import annotations

import numpy as np

from repro.algebra.semirings import PLUS_TIMES, Semiring
from repro.clique.model import CongestedClique
from repro.engine import EngineSession


def _session(
    clique: CongestedClique,
    semiring: Semiring,
    method: str | None,
    session: EngineSession | None,
) -> EngineSession:
    if session is not None:
        if session.clique is not clique:
            raise ValueError("session is bound to a different clique")
        if session.algebra is not semiring:
            raise ValueError(
                f"session is bound to {getattr(session.algebra, 'name', '?')!r}, "
                f"not the requested semiring {semiring.name!r}"
            )
        return session
    return EngineSession(clique, method or "semiring", semiring)


def matrix_power(
    clique: CongestedClique,
    matrix: np.ndarray,
    exponent: int,
    semiring: Semiring = PLUS_TIMES,
    *,
    method: str | None = None,
    session: EngineSession | None = None,
    phase: str = "matrix-power",
) -> np.ndarray:
    """``matrix^exponent`` over a semiring, by binary exponentiation.

    ``exponent = 0`` returns the multiplicative identity pattern for the
    common semirings (1 on the diagonal for plus-times/Boolean, 0-diagonal /
    zero-elsewhere for min-plus style selection semirings).

    ``method``/``session`` select the engine (default: §2.1 semiring
    engine); ring semirings may run on the fast §2.2 engine.
    """
    return _session(clique, semiring, method, session).power(
        matrix, exponent, phase=phase
    )


def closure(
    clique: CongestedClique,
    matrix: np.ndarray,
    semiring: Semiring,
    *,
    method: str | None = None,
    session: EngineSession | None = None,
    phase: str = "closure",
) -> np.ndarray:
    """Sum of all powers up to ``n`` -- "paths of any length" semantics.

    Implemented as at most ``ceil(log2 n)`` squarings of ``A (+) I``-style
    accumulation: ``B <- B (x) B (+) A`` starting from ``B = A``, which
    after ``t`` steps covers all walks of length ``<= 2^t`` (paper eq. (4),
    the directed-girth recurrence, generalised to any semiring); the
    session loop stops at the first squaring that changes nothing.  The
    input is converted to ``int64`` once and the session's cached plans
    carry all squarings.
    """
    return _session(clique, semiring, method, session).closure(
        matrix, absorb="matrix", phase=phase
    )


__all__ = ["matrix_power", "closure"]
