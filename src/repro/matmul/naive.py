"""Naive O(n)-round matrix multiplication baseline.

The obvious congested-clique algorithm: every node broadcasts its row of the
right operand (``n`` words per node, hence ``n`` rounds at unit width), after
which each node multiplies its own row of ``S`` against the fully replicated
``T`` locally.  Table 1 lists no prior work for semiring matmul -- this
baseline is the implicit comparison point the paper's ``O(n^{1/3})`` improves
on, and the tests measure the 3D engine against it.

The replication step runs on the simulator's array-native fast path
(:meth:`~repro.clique.model.CongestedClique.broadcast_rows`): ``T`` moves as
one ``(n, n)`` array with per-row honest widths instead of ``n`` tuple
payloads, and the local per-node products ``S[v] . T`` are evaluated as one
block product on the clique's executor (row ``v`` of the product is exactly
node ``v``'s local computation, so simulated costs are unchanged).
"""

from __future__ import annotations

import numpy as np

from repro.algebra.semirings import PLUS_TIMES, Semiring
from repro.clique.messages import words_for_array
from repro.clique.model import CongestedClique


def broadcast_matmul(
    clique: CongestedClique,
    s: np.ndarray,
    t: np.ndarray,
    semiring: Semiring = PLUS_TIMES,
    *,
    with_witnesses: bool = False,
    phase: str = "naive-matmul",
) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
    """Multiply via full replication of ``T``: ``O(n)`` rounds.

    Same input/output convention as
    :func:`repro.matmul.semiring3d.semiring_matmul`.
    """
    n = clique.n
    s = np.asarray(s, dtype=np.int64)
    t = np.asarray(t, dtype=np.int64)
    if s.shape != (n, n) or t.shape != (n, n):
        raise ValueError(f"operands must be {n} x {n} matrices")
    word_bits = clique.word_bits
    widths = [words_for_array(t[v], word_bits) for v in range(n)]
    t_full = clique.broadcast_rows(t, widths=widths, phase=f"{phase}/replicate-T")
    if with_witnesses:
        values, witnesses = clique.executor.semiring_products(
            semiring, s[None], t_full[None], with_witnesses=True
        )
        return values[0], witnesses[0]
    return clique.executor.semiring_products(semiring, s[None], t_full[None])[0]


__all__ = ["broadcast_matmul"]
