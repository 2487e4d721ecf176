"""The kernel tile runner: how the batched tile kernels spend their CPU.

Kernel generation 3 (see DESIGN.md) separates *what* a kernel computes from
*where its tiles run*.  The selection fold
(:meth:`~repro.algebra.semirings._SelectionSemiring._fold`) and the
bit-packed Boolean kernel
(:meth:`~repro.algebra.semirings.BooleanSemiring.packed_words_matmul_batch`)
decompose their work into independent tiles -- disjoint batch/column
ranges writing disjoint output slices -- and hand them to
:func:`run_tiles` with the caller's thread count.  One thread runs the
tiles in order on the calling thread; ``T > 1`` fans them out over a
persistent ``T``-worker :class:`~concurrent.futures.ThreadPoolExecutor`.
The tile bodies are NumPy ufunc sweeps on large arrays, which release the
GIL and call no BLAS, so plain threads scale without any copy or pickle
overhead.

This module is the one place the simulator parallelises local compute.
Bilinear ring products run serially at every thread count.

Scheduling is deterministic by construction: every tile writes a disjoint
output slice and no kernel merges across tiles in scheduling order, so
serial and threaded runs are **bit-identical** (equivalence-tested in
``tests/test_kernel_gen3.py``).  The thread count can never change values,
witnesses, or the simulator's round/load charges.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor, wait
from typing import Callable, Sequence


def tile_ranges(total: int, parts: int) -> list[tuple[int, int]]:
    """Partition ``range(total)`` into ``<= parts`` contiguous tile ranges.

    The ranges are *balanced* (sizes differ by at most one), *gap-free* and
    *non-overlapping*, and empty ranges are dropped -- so degenerate shapes
    (``total < parts``, ``total == 0``) yield fewer (or zero) ranges rather
    than empty ones.  This is the kernels' tile splitter (property-tested
    in ``tests/test_kernel_gen3.py``).
    """
    if total < 0 or parts < 1:
        raise ValueError(f"need total >= 0 and parts >= 1, got {total}/{parts}")
    parts = min(parts, total) or 1
    bounds = [total * i // parts for i in range(parts + 1)]
    return [
        (bounds[i], bounds[i + 1])
        for i in range(parts)
        if bounds[i + 1] > bounds[i]
    ]


#: One persistent pool per thread count, shared by every kernel call and
#: every clique asking for that count, so a session's ``ceil(log n)``
#: squarings never re-spawn threads.  Idle pooled threads cost nothing.
_POOLS: dict[int, ThreadPoolExecutor] = {}
_POOLS_LOCK = threading.Lock()


def run_tiles(tasks: Sequence[Callable[[], None]], threads: int = 1) -> None:
    """Run independent tile tasks on ``threads`` threads; return when all end.

    A *task* is a zero-argument callable writing a disjoint slice of a
    preallocated output.  With one thread, or a single task, the tasks run
    in order on the calling thread.  Otherwise every task is waited for
    before the first exception is re-raised, so no sibling tile is still
    writing into the caller's outputs (session arena buffers included)
    when the error reaches it.
    """
    if threads <= 1 or len(tasks) <= 1:
        for task in tasks:
            task()
        return
    with _POOLS_LOCK:
        pool = _POOLS.get(threads)
        if pool is None:
            pool = _POOLS[threads] = ThreadPoolExecutor(
                max_workers=threads, thread_name_prefix="repro-tile"
            )
    futures = [pool.submit(task) for task in tasks]
    wait(futures)
    for future in futures:
        future.result()


__all__ = ["run_tiles", "tile_ranges"]
