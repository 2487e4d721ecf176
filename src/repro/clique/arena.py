"""Per-session exchange arenas: preallocated buffers for the engine hot paths.

Every squaring of an engine session runs the same input-independent
exchanges (the :class:`~repro.matmul.semiring3d.CubePlan` /
:class:`~repro.matmul.bilinear_clique.GridPlan` schedules), so the send
assembly and the delivered inboxes have the *same shapes every time*.  An
:class:`ExchangeArena` keeps one named buffer per role and hands it back on
every call, so the ``ceil(log n)`` squarings of a closure stop allocating
(and stop ``concatenate``/``stack``-copying) tens of megabytes per product
-- the engines write into reshaped views of arena buffers instead.

Aliasing and lifetime rules (see DESIGN.md "kernel generation 2"):

* A buffer is identified by ``(key, shape)``; asking for the same key with
  a different shape reallocates (ring products can widen trailing axes).
* Buffers are **zero-initialised once**.  Callers that rely on zero padding
  (the bilinear engine's padded operands and local cell grids) may only
  write positions they write on *every* call, so untouched padding stays
  zero across reuses.
* A buffer is valid until the same key is requested again -- engines may
  not return arena-backed arrays to callers (results handed out of a
  product must be freshly allocated) and may not hold a buffer across
  products.
* Within one product, a role may reuse a buffer (or a view of one) only
  once the buffer's previous role is dead: no two *live* roles alias.  The
  §2.1 product runs in two buffers this way -- its send buffer carries
  step 1's pieces and then the kernel's step-3 pieces, its receive buffer
  step 1's inbox and then step 3's -- because each gather reads the send
  buffer and writes the receive buffer, and the kernel reads the receive
  buffer and writes the send buffer.
* Arenas are single-session, single-thread objects, exactly like the
  simulator itself; sharing one across concurrently-running products is a
  caller bug.

The arena never touches the cost meter: it changes where delivered bytes
land, not what is charged (round/load accounting is bit-identical with or
without it, which the equivalence tests pin).
"""

from __future__ import annotations

import numpy as np


class ExchangeArena:
    """A pool of named, preallocated ``int64`` exchange buffers."""

    def __init__(self) -> None:
        self._buffers: dict[str, np.ndarray] = {}

    def buffer(self, key: str, shape: tuple[int, ...]) -> np.ndarray:
        """The arena buffer for ``key``, (re)allocated zeroed on first use.

        Returns the cached buffer when the shape matches; reallocates (and
        re-zeroes) when it does not, so shape changes (padding growth, ring
        trailing axes) are always safe, just not free.
        """
        shape = tuple(int(s) for s in shape)
        buf = self._buffers.get(key)
        if buf is None or buf.shape != shape:
            buf = np.zeros(shape, dtype=np.int64)
            self._buffers[key] = buf
        return buf

    def release(self) -> None:
        """Drop every buffer (the arena stays usable).

        Engine sessions call this from their context-manager exit so a
        closed session frees its tens of megabytes deterministically
        instead of waiting for the arena to be garbage-collected.
        """
        self._buffers.clear()

    def __len__(self) -> int:
        return len(self._buffers)

    def nbytes(self) -> int:
        """Total bytes currently held (for introspection/benchmarks)."""
        return sum(b.nbytes for b in self._buffers.values())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ExchangeArena(buffers={len(self)}, nbytes={self.nbytes()})"


__all__ = ["ExchangeArena"]
