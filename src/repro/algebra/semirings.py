"""Semirings for congested-clique matrix multiplication.

The paper's Theorem 1 distinguishes two regimes:

* **semirings** (no subtraction) -- handled by the 3D algorithm of §2.1; the
  relevant instances are the min-plus (tropical) semiring for shortest paths
  and the Boolean semiring for reachability/detection;
* **rings** (subtraction available) -- handled by the bilinear algorithm of
  §2.2 over the integers (:data:`PLUS_TIMES`) and the capped polynomial
  ring of Lemma 18 (:data:`repro.algebra.polynomial.POLYNOMIAL`).

A :class:`Semiring` bundles the block-level operations the engines need: a
block matrix product (optionally with *witnesses*, i.e. the index
attaining each min), the elementwise addition used to combine partial
products, and the word width of a shipped entry.  All operations are
NumPy-vectorised over ``int64`` arrays; the min-plus instance saturates at
:data:`repro.constants.INF`.

Kernel strategy
---------------

Every semiring implements its products *batched*: ``matmul_batch`` (and,
for the selection semirings, ``matmul_batch_with_witness``) multiply a
stack of ``B`` blocks at once, which is how the executor layer runs one
engine step.  The per-block entry points :meth:`Semiring.matmul` and
:meth:`Semiring.matmul_with_witness` live once, in the base class, as a
batch of one -- so each product has exactly one kernel.

Selection-semiring products (min-plus, max-min) are computed with
*inner-dimension-blocked* kernels: the inner index range ``k`` is processed
in tiles, keeping a running ``(value, witness)`` accumulator of shape
``(B, m, n)``.  Peak temporary memory is ``O(m * n * tile)`` per block
instead of the full ``O(m * k * n)`` broadcast cube of the seed kernels,
which keeps the working set cache-resident.  The witness products run a
*packed* kernel (``(value << kbits) | tag`` under one tiled min/max, shift
and tag folded into the operands) and fall back to one exact column walk
for entries too wide to pack; the seed cube kernels survive only as test
oracles (``tests/kernel_reference.py``).

Saturation is handled per tile by :func:`saturating_add`: any operand at or
above ``INF`` yields exactly ``INF`` (never ``INF + INF``, which would
overflow ``int64``), and finite sums are clipped at ``INF``.

The Boolean product picks, by work, between a blocked ``float32`` GEMM tile
and a ``uint64`` bit-packed kernel (method of Four Russians); a
*pre-packed* entry point (:meth:`BooleanSemiring.packed_words_matmul_batch`)
consumes bit-packed operands and returns bit-packed rows, so the engine's
persistent packed closure state never round-trips through 0/1 int64
between squarings (see :func:`repro.matmul.semiring3d.boolean_matmul_packed`).

Every batched kernel accepts a ``backend=`` spec
(:mod:`repro.algebra.backends`): the packed witness fold and the packed
Boolean kernels split their work into disjoint batch/column tiles and hand
them to the backend (serial, or ``threaded:N`` to fan out over a thread
pool -- bit-identical either way, since no kernel merges across tiles in
scheduling order).  Kernels whose heavy lifting is a BLAS call (the
``float32`` GEMM tile, the plain ring product) or a single fold accept the
keyword and ignore it.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from repro.algebra.backends import get_backend, tile_ranges
from repro.constants import INF

#: Inner-dimension tile width of the plain selection kernels.  Each tile
#: materialises an ``(m, tile, n)`` slab; 8 keeps that slab cache-friendly at
#: the block sizes the 3D algorithm produces (empirically the fastest width
#: at n=512 on this class of hardware) while amortising the Python-level
#: loop overhead.  The packed witness fold also drops to it on blocks too
#: large for its slab budget (:meth:`_SelectionSemiring._packed_fold`).
DEFAULT_BLOCK_TILE = 8


def saturating_add(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``INF``-saturating addition of distance arrays (broadcasting).

    Any operand ``>= INF`` makes the result exactly ``INF`` -- crucially the
    sum ``INF + INF`` is never formed, because ``2 * INF == 2**63`` overflows
    ``int64``.  Finite results are clipped at ``INF`` so a sum can never be
    mistaken for a larger-than-infinity distance.  This is the single helper
    every min-plus code path uses to add two distances.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    infinite = (a >= INF) | (b >= INF)
    # Zero out infinite operands before adding: both addends are then < INF,
    # so the sum stays < 2**63 and the add is overflow-free even in the
    # lanes that the mask overwrites below.
    total = np.asarray(np.where(a >= INF, 0, a) + np.where(b >= INF, 0, b))
    np.copyto(total, INF, where=infinite)
    np.minimum(total, INF, out=total)
    return total


class Semiring:
    """Base class: a semiring with NumPy block operations.

    Subclasses implement the batched product :meth:`matmul_batch` and
    :meth:`add`; semirings whose addition is a selection (min/max) also
    implement :meth:`matmul_batch_with_witness`, used to extract routing
    tables (§3.3).  The per-block products are a batch of one.
    """

    name: str = "abstract"
    #: additive identity value, stored in int64 matrices
    zero_value: int = 0
    #: multiplicative identity value (the diagonal of the identity matrix)
    one_value: int = 1
    #: whether this semiring is actually a ring (supports subtraction), in
    #: which case the fast bilinear algorithm of §2.2 also applies.
    is_ring: bool = False
    #: whether witnesses (argmin/argmax indices) are meaningful
    has_witnesses: bool = False

    def matmul_batch(
        self, x: np.ndarray, y: np.ndarray, *, backend=None
    ) -> np.ndarray:
        """Batched block product: ``(B, m, k) x (B, k, n) -> (B, m, n)``.

        The executor layer calls it once per engine step, amortising the
        per-block Python overhead across the batch.  ``backend`` (a
        :mod:`repro.algebra.backends` spec) selects tile scheduling for the
        kernels that split into tiles; it can never change values.
        """
        raise NotImplementedError

    def matmul_batch_with_witness(
        self, x: np.ndarray, y: np.ndarray, *, backend=None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Batched product plus, per output entry, the inner index attaining it.

        Only meaningful for selection semirings; the default raises.
        """
        raise NotImplementedError(f"{self.name} has no witnesses")

    def matmul(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Block product ``x . y``: :meth:`matmul_batch` on a batch of one."""
        x, y = _check_block(x, y)
        return self.matmul_batch(x[None], y[None])[0]

    def matmul_with_witness(
        self, x: np.ndarray, y: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Block product with witnesses: a batch of one."""
        x, y = _check_block(x, y)
        product, witness = self.matmul_batch_with_witness(x[None], y[None])
        return product[0], witness[0]

    def add(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Elementwise semiring addition."""
        raise NotImplementedError

    def entry_words(self, arr: np.ndarray, word_bits: int) -> int:
        """Words per entry when shipping (a sub-tensor of) ``arr``.

        Scalar entries cost the words of the widest ``|value|``; the
        polynomial ring overrides this for its coefficient-vector entries.
        """
        # Deferred: repro.clique imports this module through its executor.
        from repro.clique.messages import words_for_value

        arr = np.asarray(arr)
        max_abs = int(np.max(np.abs(arr))) if arr.size else 0
        return words_for_value(max_abs, word_bits)

    def improves(self, challenger: np.ndarray, best: np.ndarray) -> np.ndarray:
        """Mask of entries where ``challenger`` strictly beats ``best``.

        Meaningful for selection semirings (it drives the routing-table
        updates of the iterated-squaring closure); the default raises.
        """
        raise NotImplementedError(f"{self.name} has no selection order")

    def zeros(self, shape: tuple[int, ...]) -> np.ndarray:
        """All-``zero_value`` matrix of the given shape."""
        return np.full(shape, self.zero_value, dtype=np.int64)

    def add_with_witness(
        self,
        a: np.ndarray,
        wa: np.ndarray,
        b: np.ndarray,
        wb: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Elementwise addition carrying witnesses along with the selection."""
        raise NotImplementedError(f"{self.name} has no witnesses")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Semiring({self.name})"


def _check_block(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Two blocks whose inner dimensions agree (ring axes may trail)."""
    x = np.asarray(x)
    y = np.asarray(y)
    if x.ndim < 2 or y.ndim != x.ndim or x.shape[1] != y.shape[0]:
        raise ValueError(
            f"incompatible block shapes {x.shape} x {y.shape} for a product"
        )
    return x, y


def _check_batch(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(x)
    y = np.asarray(y)
    if (
        x.ndim != 3
        or y.ndim != 3
        or x.shape[0] != y.shape[0]
        or x.shape[2] != y.shape[1]
    ):
        raise ValueError(
            f"incompatible batch shapes {x.shape} x {y.shape} for a product"
        )
    return x, y


#: Entry budget for one batched selection slab ``(B_chunk, m, tile, n)``:
#: the batch axis is chunked so a slab stays ~1 MB of int64, keeping the
#: vectorised kernels cache-resident at engine block sizes (measured fastest
#: at the ``q^2 = 64`` blocks an n=512 cube product produces; larger slabs
#: go memory-bound and lose up to 3x).
_BATCH_SLAB_ENTRIES = 1 << 17


def _batch_chunk(
    batch: int, per_block_entries: int, slab_entries: int = _BATCH_SLAB_ENTRIES
) -> int:
    """Blocks per chunk so a slab holds ~``slab_entries`` entries."""
    if per_block_entries <= 0:
        return max(1, batch)
    return max(1, min(batch, slab_entries // max(1, per_block_entries)))


def packed_words(bits: int) -> int:
    """``uint64`` words needed to hold ``bits`` bit-packed bits."""
    if bits < 0:
        raise ValueError(f"bit count must be >= 0, got {bits}")
    return -(-bits // 64)


def pack_bool_rows(x: np.ndarray) -> np.ndarray:
    """Bit-pack the trailing axis of an array into ``int64`` words.

    Entries ``> 0`` become 1-bits (matching every Boolean kernel's
    threshold), packed little-endian -- bit ``j`` of the row lands in bit
    ``j % 8`` of byte ``j // 8`` -- and zero-padded up to whole ``uint64``
    words, then reinterpreted as ``int64`` (the simulator's payload dtype;
    the sign bit is just bit 63 of a word).  The layout is exactly what
    :meth:`BooleanSemiring.packed_words_matmul_batch` consumes on both
    operand sides, and what it produces -- packed data composes through
    products without ever unpacking.  Like the in-kernel packing, the
    ``uint8`` <-> ``uint64`` view assumes a little-endian host.
    """
    x = np.asarray(x)
    bits = x.shape[-1]
    pw = packed_words(bits)
    packed8 = np.packbits(x > 0, axis=-1, bitorder="little")
    buf = np.zeros(x.shape[:-1] + (pw * 8,), dtype=np.uint8)
    buf[..., : packed8.shape[-1]] = packed8
    return buf.view(np.uint64).view(np.int64)


def unpack_bool_rows(words: np.ndarray, bits: int) -> np.ndarray:
    """Inverse of :func:`pack_bool_rows`: 0/1 ``int64`` rows of width ``bits``."""
    words = np.ascontiguousarray(np.asarray(words, dtype=np.int64))
    if words.shape[-1] != packed_words(bits):
        raise ValueError(
            f"packed rows of {words.shape[-1]} words cannot hold {bits} bits"
        )
    if bits == 0:
        return np.zeros(words.shape[:-1] + (0,), dtype=np.int64)
    nb = -(-bits // 8)
    u8 = words.view(np.uint64).view(np.uint8)[..., :nb]
    return np.unpackbits(u8, axis=-1, count=bits, bitorder="little").astype(
        np.int64
    )


class PlusTimesRing(Semiring):
    """The ordinary integer ring ``(Z, +, *)`` -- a ring, so §2.2 applies."""

    name = "plus-times"
    zero_value = 0
    is_ring = True

    def matmul_batch(
        self, x: np.ndarray, y: np.ndarray, *, backend=None
    ) -> np.ndarray:
        del backend  # one BLAS call; BLAS manages its own threads
        x, y = _check_batch(x, y)
        return np.matmul(x, y)

    def add(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return a + b


class BooleanSemiring(Semiring):
    """The Boolean semiring ``({0,1}, or, and)``.

    Matrices are 0/1 ``int64``.  :meth:`matmul_batch` picks one of two exact
    kernels by the work of a block (:meth:`_use_packed`):

    * a *blocked* ``float32`` GEMM: the inner dimension is processed in
      :data:`BOOL_TILE`-column tiles, each tile one BLAS call whose
      thresholded result is OR-merged into a boolean accumulator.
      Exactness does **not** need the inner count to fit the ``float32``
      mantissa: partial sums of non-negative 0/1 products are monotone
      under rounding, so a positive count can never round below ``1`` and
      a zero count is exactly ``0`` -- the ``> 0.5`` threshold is exact for
      every tile width;
    * the ``uint64`` bit-packed kernel (:meth:`packed_matmul_batch`).
    """

    name = "boolean"
    zero_value = 0

    #: Inner-dimension tile width for the blocked GEMM kernel.  Coarser
    #: than the selection-kernel tile because a tile here is one BLAS call
    #: on an ``(m, tile) x (tile, n)`` pair, not a materialised 3D slab; the
    #: default keeps per-tile ``float32`` temporaries a few MB at the block
    #: sizes the engines produce.
    BOOL_TILE = 1024

    #: Work floor for the bit-packed kernel, in elementary ``m * k * n``
    #: AND/OR operations.  The GEMM tile does that work in ``float32`` ops;
    #: the packed kernel does ``~(k/8)(n/64)(256 + m)`` word ops (table
    #: build + gather/reduce), so packing wins once the product is large
    #: *as a whole* -- including skinny-but-huge shapes like
    #: ``(64, 4096, 4096)`` that a per-dimension floor wrongly rejects.
    #: ``256**3`` reproduces the old crossover exactly on cube shapes while
    #: keeping the small per-node blocks the engines batch (``64**3`` work)
    #: on the measured-faster GEMM tile.  Both kernels are density-blind
    #: (word-parallel ORs and BLAS alike ignore the population count), so
    #: the crossover is purely about work and pack widths.
    PACKED_MIN_WORK = 256**3

    #: Minimum output width for packing to pay: below one ``uint64`` word of
    #: output columns the word-parallel OR sweep degenerates to scalar ops.
    PACKED_MIN_WIDTH = 64

    #: Minimum inner dimension: below one 8-bit chunk the 256-row OR tables
    #: cannot amortise at all.
    PACKED_MIN_INNER = 8

    #: Entry budget for one chunk-table slab ``(B_chunk, chunks, 256, nw)``
    #: of the packed kernel: the batch axis is chunked so the 256-row OR
    #: tables stay ~8 MB of ``uint64`` however large the batch -- at the
    #: n=512 engine batch (``512`` blocks of ``64^3``) a single chunk holds
    #: the whole batch, reproducing the pre-chunking behaviour exactly.
    _PACKED_TABLE_ENTRIES = 1 << 20

    def _use_packed(self, m: int, k: int, n: int) -> bool:
        """The work-based heuristic selecting the bit-packed kernel.

        The dispatch can never change values (all kernels are exact); it
        only picks the faster one.  The crossover is pinned by
        ``tests/test_kernel_gen2.py``.
        """
        return (
            n >= self.PACKED_MIN_WIDTH
            and k >= self.PACKED_MIN_INNER
            and m * k * n >= self.PACKED_MIN_WORK
        )

    def matmul_batch(
        self, x: np.ndarray, y: np.ndarray, *, backend=None
    ) -> np.ndarray:
        """Batched Boolean product: GEMM tiles or bit-packed, chosen by work.

        Large blocks take the bit-packed kernel; the small per-node blocks
        the engines batch stay on the GEMM tile (measured faster there --
        BLAS amortises while the 256-row chunk tables do not).  ``backend``
        only schedules the packed kernel's tiles; BLAS threads are BLAS's
        own business.
        """
        x, y = _check_batch(x, y)
        if self._use_packed(x.shape[1], x.shape[2], y.shape[2]):
            return self.packed_matmul_batch(x, y, backend=backend)
        k = x.shape[2]
        tile = self.BOOL_TILE
        acc = np.zeros((x.shape[0], x.shape[1], y.shape[2]), dtype=bool)
        xb = (x > 0).astype(np.float32)
        yb = (y > 0).astype(np.float32)
        for k0 in range(0, k, tile):
            counts = np.matmul(xb[:, :, k0 : k0 + tile], yb[:, k0 : k0 + tile, :])
            acc |= counts > 0.5
        return acc.astype(np.int64)

    def packed_matmul_batch(
        self, x: np.ndarray, y: np.ndarray, *, backend=None
    ) -> np.ndarray:
        """Bit-packed Boolean product (method of Four Russians, word-parallel).

        Packs both operands -- 64x memory compression against the
        ``float32`` GEMM path's working set -- runs the pre-packed word
        kernel (:meth:`packed_words_matmul_batch`, the single home of the
        endianness-sensitive table/gather logic), and unpacks the result.
        Exact at every density (no arithmetic, only AND/OR logic).
        """
        x, y = _check_batch(x, y)
        batch, m, k = x.shape
        n = y.shape[2]
        if 0 in (batch, m, k, n):
            return np.zeros((batch, m, n), dtype=np.int64)
        xw = pack_bool_rows(x)
        yw = pack_bool_rows(y)
        packed = self.packed_words_matmul_batch(xw, yw, k, backend=backend)
        return unpack_bool_rows(packed, n)

    def packed_words_matmul_batch(
        self, xw: np.ndarray, yw: np.ndarray, k: int, *, backend=None
    ) -> np.ndarray:
        """Four-Russians product on *pre-packed* operands, packed output.

        Args:
            xw: ``(B, m, xwords)`` ``int64`` -- left rows bit-packed along
                the inner dimension (``k`` logical bits, little-endian,
                zero-padded to whole words; :func:`pack_bool_rows` layout).
            yw: ``(B, k, owords)`` ``int64`` -- right rows bit-packed along
                the output columns (padding bits zero).
            k: logical inner dimension (bits of an ``xw`` row / rows of
                ``yw``).

        The inner dimension is processed in 8-bit chunks: chunk ``c`` takes
        ``y`` rows ``8c .. 8c+7`` and materialises the 256 possible OR
        combinations with 8 doubling passes; output row ``i`` then ORs,
        over chunks, the table row selected by byte ``c`` of ``x[i]``'s
        packed row -- 64 output columns per word op, chunk-major and
        contiguous.

        Returns the ``(B, m, owords)`` packed product rows, freshly
        allocated.  Padding bits of the output stay zero (padded ``y`` rows
        are all-zero, so their OR contribution vanishes), which is what
        lets the engine's persistent packed closure feed products straight
        back in as operands.  The batch axis is chunked so the 256-row OR
        tables stay slab-sized (:data:`_PACKED_TABLE_ENTRIES`) and the
        chunks are scheduled on ``backend`` -- each chunk writes a disjoint
        output slice, so scheduling cannot change values.
        """
        xw = np.ascontiguousarray(np.asarray(xw, dtype=np.int64))
        yw = np.ascontiguousarray(np.asarray(yw, dtype=np.int64))
        if xw.ndim != 3 or yw.ndim != 3 or xw.shape[0] != yw.shape[0]:
            raise ValueError(
                f"incompatible packed batch shapes {xw.shape} x {yw.shape}"
            )
        batch, m, xwords = xw.shape
        owords = yw.shape[2]
        if yw.shape[1] != k:
            raise ValueError(
                f"packed right operand has {yw.shape[1]} rows, expected k={k}"
            )
        chunks = -(-k // 8)
        if chunks > xwords * 8:
            raise ValueError(
                f"packed left rows of {xwords} words cannot hold k={k} bits"
            )
        out = np.zeros((batch, m, owords), dtype=np.int64)
        if 0 in (batch, m, k, owords):
            return out
        # The uint8 <-> uint64 views assume a little-endian host (byte j of
        # word w is packed byte 8w+j); the property tests against the cube
        # oracle would fail loudly on a big-endian platform.
        xb = xw.view(np.uint64).view(np.uint8).reshape(batch, m, xwords * 8)
        xb = xb[:, :, :chunks]
        ywu = yw.view(np.uint64)

        def product_range(lo: int, hi: int) -> None:
            chunk = _batch_chunk(
                hi - lo, chunks * 256 * owords, self._PACKED_TABLE_ENTRIES
            )
            for b0 in range(lo, hi, chunk):
                bc = min(chunk, hi - b0)
                ypad = np.zeros((bc, chunks * 8, owords), dtype=np.uint64)
                ypad[:, :k] = ywu[b0 : b0 + bc]
                ywords = ypad.reshape(bc, chunks, 8, owords)
                tables = np.zeros((bc, chunks, 256, owords), dtype=np.uint64)
                half = 1
                for t in range(8):
                    np.bitwise_or(
                        tables[:, :, :half],
                        ywords[:, :, t, None, :],
                        out=tables[:, :, half : 2 * half],
                    )
                    half *= 2
                flat = tables.reshape(bc * chunks * 256, owords)
                idx = (
                    np.ascontiguousarray(
                        np.moveaxis(xb[b0 : b0 + bc], 2, 0)
                    ).astype(np.intp)
                    + (np.arange(chunks, dtype=np.intp) * 256)[:, None, None]
                    + (np.arange(bc, dtype=np.intp) * chunks * 256)[
                        None, :, None
                    ]
                )
                rows = np.take(flat, idx, axis=0)  # (chunks, bc, m, owords)
                packed = np.bitwise_or.reduce(rows, axis=0)
                out[b0 : b0 + bc] = packed.view(np.int64)

        backend = get_backend(backend)
        if backend.threads > 1 and batch > 1:
            ranges = tile_ranges(batch, backend.threads)
        else:
            ranges = [(0, batch)]
        backend.run([partial(product_range, lo, hi) for lo, hi in ranges])
        return out

    def add(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return ((a + b) > 0).astype(np.int64)


class _SelectionSemiring(Semiring):
    """Shared blocked-kernel machinery for min-plus and max-min.

    * :meth:`matmul_batch` processes the inner dimension in tiles, reducing
      each ``(B, m, tile, n)`` slab immediately and merging it into a
      ``(B, m, n)`` running best -- peak memory ``O(m * n * tile)`` per
      block.
    * :meth:`matmul_batch_with_witness` walks the inner dimension one column
      at a time, updating a ``(value, witness)`` pair with a masked copy --
      no 3D temporaries at all.  The concrete semirings override it with
      *packed* kernels (``(value << kbits) | tag`` under one tiled min/max,
      see :meth:`_packed_fold`) and fall back to this walk for entries too
      wide to pack; it is also the reference the packed kernels are tested
      against.

    Both merge with a *strict* improvement test while scanning ``k`` in
    ascending order, which reproduces NumPy's global ``argmin``/``argmax``
    tie-breaking (lowest attaining index wins), so results and witnesses are
    bit-identical to the seed's cube-materialising kernels.
    """

    has_witnesses = True

    #: Inner-dimension tile and slab budget for the *packed* witness
    #: kernels.  Wider than the plain-kernel tile (a packed tile is a single
    #: broadcast add/min pass, so Python-loop overhead dominates sooner) and
    #: a smaller slab budget (the preallocated slab plus the running best
    #: must stay cache-resident together); measured fastest at the
    #: ``(512, 64, 64)`` batches an n=512 engine squaring produces.
    _PACKED_TILE = 16
    _PACKED_SLAB_ENTRIES = 1 << 16

    def _packed_fold(
        self, xs, ys, fill, reduce_fn, merge_fn, *, backend=None
    ) -> np.ndarray:
        """The shared tiled fold of the packed witness kernels.

        Per inner tile, ``fill`` (a broadcasting binary ufunc: ``np.add``
        for min-plus, ``np.minimum`` for max-min) writes the packed
        candidates into a preallocated slab; ``reduce_fn`` collapses the
        tile axis and ``merge_fn`` merges into the running best.  The batch
        axis is chunked so slab + best stay cache-resident
        (:data:`_PACKED_SLAB_ENTRIES`).  Returns the ``(B, m, n)`` packed
        best, still carrying the witness tag bits.

        Two orthogonal splits keep every slab cache-sized and schedulable:

        * **two-level tiling**: when a *single* block's ``(m, tile, n)``
          slab overflows the slab budget (huge blocks, batch chunking alone
          cannot help), the fold narrows its inner tile to
          :data:`DEFAULT_BLOCK_TILE` (measured faster on one 512^2 block)
          and tiles the output-column axis as well, so the inner fold runs
          per column stripe with a budget-sized slab.
        * **backend scheduling**: the (batch-range x column-stripe) cells
          are independent -- each folds the full inner dimension for a
          disjoint ``out`` slice -- so they are handed to ``backend``
          (:mod:`repro.algebra.backends`) as tiles.  The fold's merge order
          along ``k`` is unchanged in every cell, and ``min``/``max`` over
          packed (value, tag) lanes is order-independent anyway, so serial
          and threaded schedules -- and every tile width -- are
          bit-identical (down to witness tie-breaks; pinned in
          ``tests/test_kernel_gen3.py``).
        """
        batch, m, k = xs.shape
        n = ys.shape[2]
        tile = self._PACKED_TILE
        if m * min(tile, k) * n > self._PACKED_SLAB_ENTRIES:
            tile = DEFAULT_BLOCK_TILE
        out = np.empty((batch, m, n), dtype=np.int64)
        backend = get_backend(backend)
        kt_max = min(tile, k)
        # Column stripes: only when one block overflows the slab budget.
        if m * kt_max * n > self._PACKED_SLAB_ENTRIES and n > 1:
            stripe = max(1, self._PACKED_SLAB_ENTRIES // (m * kt_max))
            col_ranges = [(c0, min(c0 + stripe, n)) for c0 in range(0, n, stripe)]
        else:
            col_ranges = [(0, n)]
        # Batch ranges: one per backend thread (serial keeps one range).
        if backend.threads > 1 and batch > 1:
            batch_ranges = tile_ranges(batch, backend.threads)
        else:
            batch_ranges = [(0, batch)]
        if (
            backend.threads > 1
            and len(batch_ranges) == 1
            and len(col_ranges) == 1
            and n >= 2 * backend.threads
        ):
            # A single huge block below the stripe threshold: thread over
            # columns anyway so backend width is not wasted.
            col_ranges = tile_ranges(n, backend.threads)

        def fold_cell(b_lo: int, b_hi: int, c_lo: int, c_hi: int) -> None:
            width = c_hi - c_lo
            chunk = _batch_chunk(
                b_hi - b_lo, m * kt_max * width, self._PACKED_SLAB_ENTRIES
            )
            slab = np.empty((chunk, m, kt_max, width), dtype=np.int64)
            ycols = ys[:, :, c_lo:c_hi]
            for b0 in range(b_lo, b_hi, chunk):
                bc = min(chunk, b_hi - b0)
                xc = xs[b0 : b0 + bc]
                yc = ycols[b0 : b0 + bc]
                best: np.ndarray | None = None
                for k0 in range(0, k, tile):
                    kt = min(tile, k - k0)
                    sl = slab[:bc, :, :kt]
                    fill(
                        xc[:, :, k0 : k0 + kt, None],
                        yc[:, None, k0 : k0 + kt, :],
                        out=sl,
                    )
                    if best is None:
                        best = reduce_fn(sl, axis=2)
                    else:
                        merge_fn(best, reduce_fn(sl, axis=2), out=best)
                out[b0 : b0 + bc, :, c_lo:c_hi] = best
        backend.run(
            [
                partial(fold_cell, b_lo, b_hi, c_lo, c_hi)
                for b_lo, b_hi in batch_ranges
                for c_lo, c_hi in col_ranges
            ]
        )
        return out

    # -- subclass hooks -------------------------------------------------- #

    def _combine(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Elementwise semiring multiplication (broadcasting)."""
        raise NotImplementedError

    def _reduce(self, values: np.ndarray, axis: int) -> np.ndarray:
        """Selected value along ``axis`` (min/max)."""
        raise NotImplementedError

    def _strictly_better(self, challenger: np.ndarray, best: np.ndarray) -> np.ndarray:
        """Boolean mask: where the challenger beats the incumbent."""
        raise NotImplementedError

    # -- blocked kernels ------------------------------------------------- #

    def matmul_batch(
        self, x: np.ndarray, y: np.ndarray, *, backend=None
    ) -> np.ndarray:
        """Generic tiled kernel: per-tile reductions, strict merges.

        The batch axis is chunked to keep slab temporaries bounded.
        (``backend`` is accepted for interface uniformity; only the packed
        witness fold has backend tiles.)
        """
        del backend
        x, y = _check_batch(x, y)
        tile = DEFAULT_BLOCK_TILE
        batch, m, k = x.shape
        n = y.shape[2]
        out = np.empty((batch, m, n), dtype=np.int64)
        if k == 0:
            out[:] = self.zero_value
            return out
        chunk = _batch_chunk(batch, m * tile * n)
        for b0 in range(0, batch, chunk):
            xc = x[b0 : b0 + chunk]
            yc = y[b0 : b0 + chunk]
            best: np.ndarray | None = None
            for k0 in range(0, k, tile):
                slab = self._combine(
                    xc[:, :, k0 : k0 + tile, None], yc[:, None, k0 : k0 + tile, :]
                )
                tile_best = self._reduce(slab, axis=2)
                if best is None:
                    best = tile_best
                else:
                    better = self._strictly_better(tile_best, best)
                    np.copyto(best, tile_best, where=better)
            out[b0 : b0 + chunk] = best
        return out

    def matmul_batch_with_witness(
        self, x: np.ndarray, y: np.ndarray, *, backend=None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Batched column-walk witness kernel: the exact fallback.

        Walks the inner dimension once for the whole batch (``k`` Python
        iterations instead of ``B * k``) with a strict-improvement merge.
        The packed kernels of the subclasses defer here for an empty inner
        dimension and for operands outside their head-room range.
        """
        del backend  # the walk has no backend tiles
        x, y = _check_batch(x, y)
        batch, m, k = x.shape
        n = y.shape[2]
        if k == 0:
            shape = (batch, m, n)
            return self.zeros(shape), np.zeros(shape, dtype=np.int64)
        best = self._combine(x[:, :, 0:1], y[:, 0:1, :])
        witness = np.zeros(best.shape, dtype=np.int64)
        for j in range(1, k):
            candidate = self._combine(x[:, :, j : j + 1], y[:, j : j + 1, :])
            better = self._strictly_better(candidate, best)
            np.copyto(best, candidate, where=better)
            np.copyto(witness, j, where=better)
        return best, witness

    def improves(self, challenger: np.ndarray, best: np.ndarray) -> np.ndarray:
        return self._strictly_better(challenger, best)


class MinPlusSemiring(_SelectionSemiring):
    """The tropical (min-plus) semiring used for distance products (§3.3).

    ``(S * T)[u, v] = min_w S[u, w] + T[w, v]``; the additive identity is
    :data:`~repro.constants.INF` and sums saturate there so that unreachable
    entries stay unreachable.  Witnesses record the minimising inner index,
    which §3.3 turns into routing tables.
    """

    name = "min-plus"
    zero_value = INF
    one_value = 0

    #: Fast-path constants: operands whose finite entries satisfy
    #: ``|x| <= _FAST_MAX`` are *penalty-encoded* -- ``INF`` becomes
    #: ``_PENALTY`` -- so each tile needs only a raw add + min (no masking
    #: passes).  Any combo involving an encoded infinity lands in
    #: ``[_PENALTY - _FAST_MAX, 2 * _PENALTY]``, entirely above
    #: ``_INF_THRESHOLD``, while finite sums stay entirely below it; a
    #: single final threshold pass restores exact ``INF`` saturation.  The
    #: maximum possible sum is ``2 * _PENALTY == 2**62 < 2**63``: overflow
    #: is impossible, and ``INF + INF`` is never formed.
    _FAST_MAX = 1 << 58
    _PENALTY = 1 << 61
    _INF_THRESHOLD = 1 << 60

    def _combine(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return saturating_add(a, b)

    @classmethod
    def _penalty_encode(
        cls, x: np.ndarray, y: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray] | None:
        """Encoded operands for the fast path, or ``None`` if out of range."""
        encoded = []
        for mat in (x, y):
            finite = np.where(mat >= INF, 0, mat)
            if not bool(np.all(np.abs(finite) <= cls._FAST_MAX)):
                return None
            encoded.append(np.where(mat >= INF, cls._PENALTY, mat))
        return encoded[0], encoded[1]

    def matmul_batch(
        self, x: np.ndarray, y: np.ndarray, *, backend=None
    ) -> np.ndarray:
        """Penalty-encoded tiled fold: a raw add + min per tile.

        Values are bit-identical to the generic tiled kernel, which remains
        the exact path for finite entries too wide to encode.
        """
        del backend  # the penalty-encoded fold has no backend tiles
        x, y = _check_batch(x, y)
        tile = DEFAULT_BLOCK_TILE
        batch, m, k = x.shape
        n = y.shape[2]
        if k == 0:
            return self.zeros((batch, m, n))
        encoded = self._penalty_encode(x, y)
        if encoded is None:  # huge finite entries: exact saturating path
            return super().matmul_batch(x, y)
        xe, ye = encoded
        out = np.empty((batch, m, n), dtype=np.int64)
        chunk = _batch_chunk(batch, m * tile * n)
        for b0 in range(0, batch, chunk):
            xc = xe[b0 : b0 + chunk]
            yc = ye[b0 : b0 + chunk]
            best: np.ndarray | None = None
            for k0 in range(0, k, tile):
                slab = (
                    xc[:, :, k0 : k0 + tile, None]
                    + yc[:, None, k0 : k0 + tile, :]
                )
                tile_best = slab.min(axis=2)
                if best is None:
                    best = tile_best
                else:
                    np.minimum(best, tile_best, out=best)
            out[b0 : b0 + chunk] = best
        np.copyto(out, INF, where=out >= self._INF_THRESHOLD)
        return out

    def _pack_parameters(
        self, x: np.ndarray, y: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, int, int, int] | None:
        """Offsets/penalty/shift for the packed witness kernel, or ``None``.

        The packed kernel turns the witness product into a *plain* tiled min
        over ``(sum << kbits) | j`` values: the minimum simultaneously
        selects the smallest sum and, on ties, the smallest inner index --
        exactly the tie-breaking of the column walk.  For that to be exact
        in ``int64`` we need head-room: with finite entries bounded by ``F``
        in magnitude, entries are shifted by ``+F`` (so encoded sums are
        non-negative, ``<= 4F``), infinities become a penalty ``P > 4F``
        (any combo involving one lands ``>= P``, double penalties at
        ``2P``), and ``2P << kbits`` must stay below ``2^62``.  Falls back
        to ``None`` (column walk) outside that range.
        """
        k = x.shape[-1]
        kbits = max(0, (k - 1).bit_length())
        finite_bound = 0
        for mat in (x, y):
            if mat.size == 0:
                continue
            # max |finite entry| without materialising a masked copy: the
            # global min is never INF-contaminated (INF is the largest
            # value), and the masked max caps negatives at the 0 initial.
            lo = int(mat.min())
            hi = int(np.max(mat, initial=0, where=mat < INF))
            finite_bound = max(finite_bound, -lo if lo < 0 else 0, hi)
        penalty = 1 << max(3, (4 * finite_bound).bit_length())
        if 2 * penalty >= 1 << (62 - kbits):
            return None
        xs = np.where(x >= INF, penalty, x + finite_bound)
        ys = np.where(y >= INF, penalty, y + finite_bound)
        return xs, ys, kbits, penalty, finite_bound

    def matmul_batch_with_witness(
        self, x: np.ndarray, y: np.ndarray, *, backend=None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Packed min-plus witness kernel: one tiled min over tagged sums.

        Values and witnesses are bit-identical to the column walk of
        :class:`_SelectionSemiring`, including tie-breaks; the walk handles
        an empty inner dimension and entries too wide to pack.
        """
        x, y = _check_batch(x, y)
        k = x.shape[2]
        packed = self._pack_parameters(x, y) if k else None
        if packed is None:  # empty or huge entries: exact column walk
            return super().matmul_batch_with_witness(x, y)
        xs, ys, kbits, penalty, offset = packed
        # Fold the shift and the index tag into the operands once:
        # ``((a + b) << kbits) | j  ==  (a << kbits) + ((b << kbits) + j)``
        # exactly (``j < 2^kbits`` and the shifted sum has ``kbits`` low
        # zero bits), so each tile is a single broadcast add plus a min --
        # no per-slab shift/or passes.  ``xs``/``ys`` are fresh encodes, so
        # the in-place folds are safe.
        xs <<= kbits
        ys <<= kbits
        ys += np.arange(k, dtype=np.int64)[None, :, None]
        out = self._packed_fold(
            xs, ys, np.add, np.min, np.minimum, backend=backend
        )
        witness = out & ((1 << kbits) - 1)
        out >>= kbits
        # Encoded sums carry a 2*offset shift; restore it, then restore INF
        # saturation (any combo involving an encoded infinity is >= penalty)
        # with the all-infinite witness convention (index 0).
        saturated = out >= penalty
        out -= 2 * offset
        np.copyto(out, INF, where=saturated)
        np.copyto(witness, 0, where=saturated)
        return out, witness

    def _reduce(self, values: np.ndarray, axis: int) -> np.ndarray:
        return np.min(values, axis=axis)

    def _strictly_better(self, challenger: np.ndarray, best: np.ndarray) -> np.ndarray:
        return challenger < best

    def add(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return np.minimum(a, b)

    def add_with_witness(
        self,
        a: np.ndarray,
        wa: np.ndarray,
        b: np.ndarray,
        wb: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        take_b = b < a
        return np.where(take_b, b, a), np.where(take_b, wb, wa)


class MaxMinSemiring(_SelectionSemiring):
    """The bottleneck (max-min) semiring -- a natural extension target.

    ``(S * T)[u, v] = max_w min(S[u, w], T[w, v])`` computes widest
    bottleneck paths; included to demonstrate that the §2.1 engine is generic
    over semirings (the paper states Theorem 1 "over semirings").
    """

    name = "max-min"
    zero_value = -INF
    one_value = INF

    def _pack_parameters(
        self, x: np.ndarray, y: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, int, int, int] | None:
        """Monotone encoding for the packed max-min witness kernel, or ``None``.

        The min-plus packing trick carries over with two twists.  First, the
        elementwise product is a *min*, so instead of adding encoded
        operands we encode with any strictly monotone map ``e`` over the
        extended order ``-INF < finite < +INF`` -- then
        ``min(e(a), e(b)) = e(min(a, b))`` exactly.  We use ``e(-INF) = 0``,
        ``e(v) = v + F + 1`` for ``|v| <= F`` finite, ``e(+INF) = P = 2F+2``.
        Second, the outer reduction is a *max*, so on value ties the
        **largest** tag wins; tagging column ``j`` with ``k - 1 - j`` makes
        the smallest inner index win ties -- NumPy's argmax convention,
        bit-identical to the column walk.  Exactness needs
        ``P << kbits < 2^62``; ``None`` falls back to the column walk.
        """
        k = x.shape[-1]
        kbits = max(0, (k - 1).bit_length())
        finite_bound = 0
        for mat in (x, y):
            if mat.size == 0:
                continue
            hi = int(np.max(mat, initial=0, where=mat < INF))
            lo = int(np.min(mat, initial=0, where=mat > -INF))
            finite_bound = max(finite_bound, hi, -lo)
        penalty = 2 * finite_bound + 2
        if penalty >= 1 << (62 - kbits):
            return None
        xs = np.where(x >= INF, penalty, np.where(x <= -INF, 0, x + finite_bound + 1))
        ys = np.where(y >= INF, penalty, np.where(y <= -INF, 0, y + finite_bound + 1))
        return xs, ys, kbits, penalty, finite_bound

    def matmul_batch_with_witness(
        self, x: np.ndarray, y: np.ndarray, *, backend=None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Packed max-min witness kernel: one tiled max over tagged encodes.

        Packs ``(e(min) << kbits) + (k - 1 - j)`` and takes a single tiled
        max; because both operands of a lane carry the *same* tag,
        ``min(a + t, b + t) = min(a, b) + t`` keeps the fold exact.  Values
        and witnesses are bit-identical to the column walk of
        :class:`_SelectionSemiring`, including tie-breaks; the walk handles
        an empty inner dimension and entries too wide to pack.
        """
        x, y = _check_batch(x, y)
        k = x.shape[2]
        packed = self._pack_parameters(x, y) if k else None
        if packed is None:  # empty or huge entries: exact column walk
            return super().matmul_batch_with_witness(x, y)
        xs, ys, kbits, penalty, offset = packed
        # Fold shift and reversed tag into *both* operands (same tag per
        # inner index, so the elementwise min preserves it exactly).
        tags = (k - 1) - np.arange(k, dtype=np.int64)
        xs <<= kbits
        xs += tags[None, None, :]
        ys <<= kbits
        ys += tags[None, :, None]
        out = self._packed_fold(
            xs, ys, np.minimum, np.max, np.maximum, backend=backend
        )
        witness = (k - 1) - (out & ((1 << kbits) - 1))
        out >>= kbits
        # Decode the monotone encoding: 0 is -INF, penalty is +INF,
        # everything else shifts back by offset + 1.
        neg = out == 0
        pos = out >= penalty
        out -= offset + 1
        np.copyto(out, -INF, where=neg)
        np.copyto(out, INF, where=pos)
        np.copyto(witness, 0, where=neg)
        return out, witness

    def _combine(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return np.minimum(a, b)

    def _reduce(self, values: np.ndarray, axis: int) -> np.ndarray:
        return np.max(values, axis=axis)

    def _strictly_better(self, challenger: np.ndarray, best: np.ndarray) -> np.ndarray:
        return challenger > best

    def add(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return np.maximum(a, b)

    def add_with_witness(
        self,
        a: np.ndarray,
        wa: np.ndarray,
        b: np.ndarray,
        wb: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        take_b = b > a
        return np.where(take_b, b, a), np.where(take_b, wb, wa)


#: Singleton instances -- semirings are stateless, so share them.
PLUS_TIMES = PlusTimesRing()
BOOLEAN = BooleanSemiring()
MIN_PLUS = MinPlusSemiring()
MAX_MIN = MaxMinSemiring()

ALL_SEMIRINGS: tuple[Semiring, ...] = (PLUS_TIMES, BOOLEAN, MIN_PLUS, MAX_MIN)


__all__ = [
    "Semiring",
    "PlusTimesRing",
    "BooleanSemiring",
    "MinPlusSemiring",
    "MaxMinSemiring",
    "PLUS_TIMES",
    "BOOLEAN",
    "MIN_PLUS",
    "MAX_MIN",
    "ALL_SEMIRINGS",
    "saturating_add",
    "DEFAULT_BLOCK_TILE",
    "packed_words",
    "pack_bool_rows",
    "unpack_bool_rows",
]
