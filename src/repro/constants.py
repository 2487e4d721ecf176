"""Model-wide constants for the congested-clique reproduction.

The paper expresses its bounds in terms of two exponents:

* ``omega`` -- the (centralised) matrix multiplication exponent; the best bound
  cited by the paper is Le Gall's ``omega < 2.3728639``.
* ``rho`` -- the congested-clique matrix multiplication exponent; Theorem 1
  gives ``rho <= 1 - 2/omega < 0.15715``.

Our implementation instantiates Lemma 10 with recursive Strassen
(``sigma = log2(7)``), the standard practical stand-in for the galactic
asymptotic constructions, so the exponent actually achieved by the running
code is ``1 - 2/log2(7) ~ 0.2876``.  Both are exported so the analysis layer
can report "paper bound" and "implemented bound" side by side.
"""

from __future__ import annotations

import math

#: Best known centralised matrix multiplication exponent (Le Gall 2014),
#: as cited by the paper.
OMEGA_BEST: float = 2.3728639

#: The paper's distributed matmul exponent upper bound, ``1 - 2/omega``.
RHO_PAPER: float = 1.0 - 2.0 / OMEGA_BEST

#: Exponent of Strassen's bilinear algorithm: ``log2(7)``.
SIGMA_STRASSEN: float = math.log2(7.0)

#: Distributed exponent achieved by our running code (Lemma 10 with Strassen).
RHO_IMPLEMENTED: float = 1.0 - 2.0 / SIGMA_STRASSEN

#: Sentinel used for ``+infinity`` in integer tropical (min-plus) matrices.
#: Chosen so that ``INF + INF`` does not overflow ``int64``.
INF: int = 2**62


def check_path_weight(weight: int, n: int, name: str) -> None:
    """Refuse an edge weight whose simple paths on ``n`` nodes can reach ``INF``.

    A simple path has at most ``n - 1`` edges, so ``(n - 1) * |weight| <
    INF`` keeps every distance finite and exact in ``int64``; a heavier
    weight would saturate reachable pairs to ``INF``.  Raises a
    ``ValueError`` naming the weight (as ``name``) and the largest accepted
    one.  Selection products that never add weights (max-min) need no
    bound.
    """
    limit = (INF - 1) // max(1, n - 1)
    if abs(weight) > limit:
        raise ValueError(
            f"{name} {weight} is too large for n={n}: a path of n - 1 edges "
            f"must stay below INF = 2^62, so the largest accepted weight is "
            f"{limit}"
        )


__all__ = [
    "OMEGA_BEST",
    "RHO_PAPER",
    "SIGMA_STRASSEN",
    "RHO_IMPLEMENTED",
    "INF",
    "check_path_weight",
]
