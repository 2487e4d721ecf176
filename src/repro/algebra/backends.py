"""Kernel execution backends: how the batched tile kernels spend their CPU.

Kernel generation 3 (see DESIGN.md) separates *what* a kernel computes from
*where its tiles run*.  The selection fold
(:meth:`~repro.algebra.semirings._SelectionSemiring._fold`) and the
bit-packed Boolean kernels already decompose their work into independent
tiles -- disjoint batch/column ranges writing disjoint output slices -- so
scheduling those tiles is an orthogonal choice:

* :class:`SerialBackend` -- today's behaviour: tiles run in order on the
  calling thread.
* :class:`ThreadedBackend` -- tiles fan out over a persistent
  :class:`~concurrent.futures.ThreadPoolExecutor`.  The tile bodies are
  NumPy ufunc sweeps on large int64 arrays, which release the GIL, so plain
  threads scale without any copy or pickle overhead.  While tile threads
  are in flight any BLAS pool is capped at one thread via ``threadpoolctl``
  (when installed) so tile threads and BLAS threads never oversubscribe
  the machine; without ``threadpoolctl`` the cap is skipped -- harmless
  for the packed kernels, which never call BLAS.

This module is the one place the simulator parallelises local compute.
Only kernels that split into tiles use it: the packed Boolean kernels and
the min-plus/max-min fold.  Bilinear ring products run
serially on every backend.

Backends are deterministic by construction: every tile writes a disjoint
output slice and no kernel merges across tiles in scheduling order, so
serial and threaded runs are **bit-identical** (equivalence-tested in
``tests/test_kernel_gen3.py``).  The scheduling choice can never change
values, witnesses, or the simulator's round/load charges.

Kernels run on serial tiles unless a caller passes a backend: executors
pass theirs down per call (``--threads`` on the CLI picks it).
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from typing import Callable, Sequence

try:  # optional: honest BLAS/tile-thread interplay when available
    from threadpoolctl import threadpool_limits as _threadpool_limits
except ImportError:  # pragma: no cover - depends on the environment
    _threadpool_limits = None


class KernelBackendError(ValueError):
    """An unknown or unavailable kernel backend was requested."""


def tile_ranges(total: int, parts: int) -> list[tuple[int, int]]:
    """Partition ``range(total)`` into ``<= parts`` contiguous tile ranges.

    The ranges are *balanced* (sizes differ by at most one), *gap-free* and
    *non-overlapping*, and empty ranges are dropped -- so degenerate shapes
    (``total < parts``, ``total == 0``) yield fewer (or zero) ranges rather
    than empty ones.  This is the threaded backend's tile splitter
    (property-tested in ``tests/test_kernel_gen3.py``).
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


class KernelBackend:
    """Interface: run a batch of independent tile tasks.

    A *task* is a zero-argument callable writing a disjoint slice of a
    preallocated output; :meth:`run` returns once every task has finished,
    re-raising the first exception.  ``threads`` is the scheduling width a
    kernel should split its work for (``1`` means do not bother splitting).
    """

    name = "abstract"
    threads = 1

    def run(self, tasks: Sequence[Callable[[], None]]) -> None:
        raise NotImplementedError

    def limit_blas(self):
        """Context manager capping BLAS pools while tile threads run."""
        return nullcontext()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(threads={self.threads})"


class SerialBackend(KernelBackend):
    """Tiles run in order on the calling thread (the default)."""

    name = "serial"
    threads = 1

    def run(self, tasks: Sequence[Callable[[], None]]) -> None:
        for task in tasks:
            task()


class ThreadedBackend(KernelBackend):
    """Tiles fan out over a persistent thread pool.

    The pool is created lazily on first use and shared by every kernel call
    through this backend instance (instances themselves are shared via
    :func:`get_backend`'s per-thread-count cache, so a session's
    ``ceil(log n)`` squarings never re-spawn threads).  ``close`` exists for
    tests; idle pooled threads cost nothing, so process lifetime is fine.
    """

    name = "threaded"

    def __init__(self, threads: int) -> None:
        if threads < 1:
            raise KernelBackendError(f"threads must be >= 1, got {threads}")
        self.threads = int(threads)
        self._pool: ThreadPoolExecutor | None = None

    def _ensure_pool(self) -> ThreadPoolExecutor:
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.threads, thread_name_prefix="repro-tile"
            )
        return self._pool

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def limit_blas(self):
        if _threadpool_limits is None:
            return nullcontext()
        return _threadpool_limits(limits=1)

    def run(self, tasks: Sequence[Callable[[], None]]) -> None:
        tasks = list(tasks)
        if len(tasks) <= 1 or self.threads <= 1:
            for task in tasks:
                task()
            return
        # Cap BLAS for the duration: tile threads own the cores.  The tile
        # bodies themselves are BLAS-free, so this only matters when a
        # caller overlaps kernels with BLAS work on other threads.
        with self.limit_blas():
            pool = self._ensure_pool()
            futures = [pool.submit(task) for task in tasks]
            for future in futures:
                future.result()


#: Backend factories by registry name; each takes a thread count.
_FACTORIES: dict[str, Callable[[int], KernelBackend]] = {
    "serial": lambda threads: SerialBackend(),
    "threaded": ThreadedBackend,
}

#: Shared instances per (name, threads): kernels resolve specs on every
#: call, so caching keeps thread pools persistent across calls.
_INSTANCES: dict[tuple[str, int], KernelBackend] = {}

_SERIAL = SerialBackend()
_INSTANCES[("serial", 1)] = _SERIAL


def get_backend(spec: "str | int | KernelBackend | None" = None) -> KernelBackend:
    """Resolve a backend spec to a (shared) :class:`KernelBackend`.

    Accepted specs: ``None`` (serial tiles), a backend instance
    (returned as-is), an ``int`` thread count (``1`` -> serial, ``N > 1``
    -> ``threaded:N``), or a registry string ``"serial"``, ``"threaded"``
    (thread count = ``os.cpu_count()``) or ``"threaded:N"``.
    """
    if spec is None:
        return _SERIAL
    if isinstance(spec, KernelBackend):
        return spec
    if isinstance(spec, int):
        if spec < 1:
            raise KernelBackendError(f"thread count must be >= 1, got {spec}")
        spec = "serial" if spec == 1 else f"threaded:{spec}"
    name, _, count = str(spec).partition(":")
    if name not in _FACTORIES:
        raise KernelBackendError(
            f"unknown kernel backend {name!r} (known: {sorted(_FACTORIES)})"
        )
    if count:
        try:
            threads = int(count)
        except ValueError:
            raise KernelBackendError(
                f"bad thread count in backend spec {spec!r}"
            ) from None
    else:
        threads = 1 if name == "serial" else (os.cpu_count() or 1)
    if threads < 1:
        raise KernelBackendError(f"thread count must be >= 1, got {threads}")
    if name == "serial":
        threads = 1
    key = (name, threads)
    backend = _INSTANCES.get(key)
    if backend is None:
        backend = _FACTORIES[name](threads)
        _INSTANCES[key] = backend
    return backend


__all__ = [
    "KernelBackend",
    "KernelBackendError",
    "SerialBackend",
    "ThreadedBackend",
    "get_backend",
    "tile_ranges",
]
