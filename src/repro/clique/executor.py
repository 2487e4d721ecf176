"""The local-compute executor of the congested-clique simulator.

The simulator separates two costs: *communication* (metered in rounds by
:class:`~repro.clique.model.CongestedClique`) and *local computation* (the
per-node block products every matmul engine performs between exchanges,
which are free in the model, §1.1, but dominate the simulator's wall
clock).  :class:`Executor` is the seam the engines call for the latter:
an engine step runs all its per-node block products as one batched kernel
call (see :meth:`~repro.algebra.semirings.Semiring.matmul_batch`) on the
executor's kernel tile thread count
(:func:`~repro.algebra.backends.run_tiles`).

The thread count can never change values -- the kernels compute exact,
deterministic functions of their int64 inputs -- so every count yields
bit-identical values, message widths and round charges for every engine
phase (equivalence-tested in ``tests/test_executor_equivalence.py`` and
``tests/test_kernel_gen3.py``).  Every clique owns one executor, the plain
attribute ``clique.executor``.
"""

from __future__ import annotations

import operator

import numpy as np

from repro.algebra.semirings import BOOLEAN, Semiring


class Executor:
    """Batched local block products on ``threads`` kernel tile threads.

    ``lefts`` and ``rights`` are ``(B, ...)`` int64 stacks -- one block pair
    per node (or per bilinear worker); every method returns the stacked
    products in the same order.

    Raises:
        ValueError: unless ``threads`` is an integer ``>= 1``.
    """

    def __init__(self, threads: int = 1) -> None:
        try:
            count = operator.index(threads)
        except TypeError:
            count = 0
        if count < 1:
            raise ValueError(f"threads must be an integer >= 1, got {threads!r}")
        self.threads = count

    def semiring_products(
        self,
        semiring: Semiring,
        lefts: np.ndarray,
        rights: np.ndarray,
        *,
        with_witnesses: bool = False,
        out: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
        """``(B, m, k) x (B, k, n) -> (B, m, n)`` products (+ witnesses).

        ``out=(values, witnesses)`` -- witnessed products only -- receives
        the result in place (views allowed) and is returned; the §2.1
        engine passes its step-3 send buffer.
        """
        if with_witnesses:
            return semiring.matmul_batch_with_witness(
                lefts, rights, threads=self.threads, out=out
            )
        if out is not None:
            raise ValueError("out= takes a witnessed product's two outputs")
        return semiring.matmul_batch(lefts, rights, threads=self.threads)

    def ring_products(
        self, ring: Semiring, lefts: np.ndarray, rights: np.ndarray
    ) -> np.ndarray:
        """Stacked ring block products (trailing ring axes supported).

        One BLAS call per product, so serial at every tile thread count.
        """
        return ring.matmul_batch(lefts, rights)

    def boolean_packed_products(
        self, lefts: np.ndarray, rights: np.ndarray, k: int
    ) -> np.ndarray:
        """Batched *pre-packed* Boolean block products (packed in/out).

        ``lefts``/``rights`` are bit-packed word stacks in the
        :func:`~repro.algebra.semirings.pack_bool_rows` layout with logical
        inner dimension ``k``; the result is the freshly-allocated packed
        product stack.
        """
        return BOOLEAN.packed_words_matmul_batch(
            lefts, rights, k, threads=self.threads
        )


__all__ = ["Executor"]
