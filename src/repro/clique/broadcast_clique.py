"""The broadcast congested clique (paper §4, Corollary 24).

A restricted variant of the model: in every round each node must send the
**same** ``O(log n)``-bit word to all other nodes.  Holzer-Pinsker [38] (as
cited by the paper) imply that matrix multiplication and APSP need
``Omega~(n)`` rounds here -- which is why the paper's sub-polynomial
algorithms fundamentally need unicast.

We implement the model so the separation is *demonstrable*: the only
generic way to multiply matrices is to replicate them via broadcast
(``Theta(n)`` rounds), and the test suite contrasts that with the
unicast engines' ``O(n^{1/3})`` / ``O(n^{1-2/sigma})`` on identical inputs.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.algebra.semirings import PLUS_TIMES, Semiring
from repro.clique.messages import words_for_array
from repro.clique.model import CongestedClique


class BroadcastCongestedClique:
    """An ``n``-node clique whose only primitive is one-word-to-all.

    The deliberate absence of every unicast collective *is* the model: per
    round, a node contributes one word of globally visible state.  Its one
    primitive, :meth:`broadcast_rows`, is the full model's, billed by the
    same rule on this clique's meter.
    """

    def __init__(self, n: int, *, word_bits: int | None = None) -> None:
        self._clique = CongestedClique(n, word_bits=word_bits)
        self.n = n
        self.word_bits = self._clique.word_bits
        self.meter = self._clique.meter

    @property
    def rounds(self) -> int:
        return self.meter.rounds

    def broadcast_rows(
        self,
        rows: np.ndarray,
        *,
        widths: Sequence[int] | None = None,
        phase: str = "broadcast",
    ) -> np.ndarray:
        """Node ``v`` announces ``rows[v]``; rounds = the widest row.

        See :meth:`repro.clique.model.CongestedClique.broadcast_rows`.
        """
        return self._clique.broadcast_rows(rows, widths=widths, phase=phase)


def broadcast_clique_matmul(
    clique: BroadcastCongestedClique,
    s: np.ndarray,
    t: np.ndarray,
    semiring: Semiring = PLUS_TIMES,
    *,
    phase: str = "bc-matmul",
) -> np.ndarray:
    """Matrix multiplication in the broadcast model: ``Theta(n)`` rounds.

    Each node broadcasts its row ``[S | T]`` of both operands (any
    algorithm must make the inputs' information globally available through
    the single shared word per node per round, which is why ``Omega~(n)``
    is forced -- Corollary 24); the product is then local.
    """
    n = clique.n
    s = np.asarray(s, dtype=np.int64)
    t = np.asarray(t, dtype=np.int64)
    if s.shape != (n, n) or t.shape != (n, n):
        raise ValueError(f"operands must be {n} x {n}")
    widths = [
        words_for_array(s[v], clique.word_bits)
        + words_for_array(t[v], clique.word_bits)
        for v in range(n)
    ]
    received = clique.broadcast_rows(
        np.concatenate([s, t], axis=1), widths=widths, phase=f"{phase}/replicate"
    )
    # Node v multiplies its own row of S by the T it has now learnt.
    return semiring.matmul(s, received[:, n:])


__all__ = [
    "BroadcastCongestedClique",
    "broadcast_clique_matmul",
]
