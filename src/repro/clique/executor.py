"""Pluggable local-compute executors for the congested-clique simulator.

The simulator separates two costs: *communication* (metered in rounds by
:class:`~repro.clique.model.CongestedClique`) and *local computation* (the
per-node block products every matmul engine performs between exchanges,
which dominate the simulator's wall clock).  This module is the seam the
engines call for the latter: :class:`SerialExecutor` runs all per-node
block products in-process, as one batched kernel call (see
:meth:`~repro.algebra.semirings.Semiring.matmul_batch`).

How that call spreads over cores is the kernel *tile backend*'s business
(:mod:`repro.algebra.backends`): an executor carries a backend spec
(``serial`` or ``threaded:N``) and passes it into every batched kernel
call.  Scheduling can never change values -- executors compute exact,
deterministic functions of their int64 inputs -- so every backend yields
bit-identical values, message widths and round charges for every engine
phase (equivalence-tested in ``tests/test_executor_equivalence.py`` and
``tests/test_kernel_gen3.py``).  Executors also expose the pre-packed
Boolean product (:meth:`LocalExecutor.boolean_packed_products`) for the
engine's persistent packed closures.
"""

from __future__ import annotations

import numpy as np

from repro.algebra.backends import KernelBackend, get_backend
from repro.algebra.semirings import Semiring


class LocalExecutor:
    """Interface: batched local block products for the matmul engines.

    ``lefts`` and ``rights`` are ``(B, ...)`` int64 stacks -- one block pair
    per node (or per bilinear worker); implementations return the stacked
    products in the same order.  Values must be bit-identical across
    implementations (the engines derive message widths from them).
    """

    name = "abstract"
    #: The kernel tile backend this executor computes with.
    backend: KernelBackend = get_backend(None)

    @property
    def threads(self) -> int:
        """Kernel tile threads (1 = serial tiles)."""
        return self.backend.threads

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
        raise NotImplementedError

    def ring_products(
        self, ring: Semiring, lefts: np.ndarray, rights: np.ndarray
    ) -> np.ndarray:
        """Stacked ring block products (trailing ring axes supported)."""
        raise NotImplementedError

    def boolean_packed_products(
        self, lefts: np.ndarray, rights: np.ndarray, k: int
    ) -> np.ndarray:
        """Batched *pre-packed* Boolean block products (packed in/out).

        ``lefts``/``rights`` are bit-packed word stacks in the
        :func:`~repro.algebra.semirings.pack_bool_rows` layout with logical
        inner dimension ``k``; the result is the freshly-allocated packed
        product stack.  Bit-identical across executors, like every other
        product.
        """
        raise NotImplementedError


class SerialExecutor(LocalExecutor):
    """In-process executor: one batched kernel call per engine step.

    ``backend`` selects the kernel tile scheduling for that one call
    (``None``: serial tiles; ``"threaded:N"`` or an int thread count: fan
    tiles out over a thread pool).
    """

    name = "serial"

    def __init__(self, backend: "str | int | KernelBackend | None" = None) -> None:
        self.backend = get_backend(backend)

    def semiring_products(
        self,
        semiring: Semiring,
        lefts: np.ndarray,
        rights: np.ndarray,
        *,
        with_witnesses: bool = False,
        out: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
        if with_witnesses:
            return semiring.matmul_batch_with_witness(
                lefts, rights, backend=self.backend, out=out
            )
        if out is not None:
            raise ValueError("out= takes a witnessed product's two outputs")
        return semiring.matmul_batch(lefts, rights, backend=self.backend)

    def ring_products(
        self, ring: Semiring, lefts: np.ndarray, rights: np.ndarray
    ) -> np.ndarray:
        return ring.matmul_batch(lefts, rights)

    def boolean_packed_products(
        self, lefts: np.ndarray, rights: np.ndarray, k: int
    ) -> np.ndarray:
        from repro.algebra.semirings import BOOLEAN

        return BOOLEAN.packed_words_matmul_batch(
            lefts, rights, k, backend=self.backend
        )


#: Process-wide default executor (what a bare ``CongestedClique`` uses).
SERIAL_EXECUTOR = SerialExecutor()


def make_executor(threads: int = 1) -> LocalExecutor:
    """The executor for a kernel-tile thread count.

    ``threads`` picks the tile backend (1 = serial tiles, ``T > 1`` =
    ``threaded:T``).  Values, rounds and meters are bit-identical across
    every thread count.
    """
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    return SERIAL_EXECUTOR if threads == 1 else SerialExecutor(f"threaded:{threads}")


__all__ = [
    "LocalExecutor",
    "SerialExecutor",
    "SERIAL_EXECUTOR",
    "make_executor",
]
