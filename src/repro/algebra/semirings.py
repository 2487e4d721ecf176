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

Selection-semiring products (min-plus, max-min), plain and witnessed,
all run one *narrow-lane fold* (:class:`_SelectionSemiring`).  Each entry
is packed under a monotone encode -- finite entries shifted by the largest
finite magnitude ``F``, infinities onto a penalty -- and, for witnessed
products, shifted left by ``kbits`` with the inner index as a tag in the
low bits, so one min or max over packed lanes selects the best value and
the lowest attaining index together.  The lanes are the narrowest of
``int16``, ``int32`` and ``int64`` with two bits of head-room over every
packed value; then a k-loop of one ``fill`` (the elementwise product of
inner column ``j`` and inner row ``j``) and one ``merge`` (the semiring
addition) per inner index runs over cache-sized ``(chunk, m, n)`` lanes,
and the result decodes straight into the ``int64`` outputs (the §2.1
engine passes its step-3 send buffer as ``out=``).  Entries too wide for
``int64`` lanes, and empty inner dimensions, take the exact column walk,
the only fallback.  The seed cube kernels survive only as test oracles
(``tests/kernel_reference.py``).

Saturation in the walk is handled by :func:`saturating_add`: any operand at
or above ``INF`` yields exactly ``INF`` (never ``INF + INF``, which would
overflow ``int64``), and finite sums are clipped at ``INF``.  Operands are
``int64``: integer and bool blocks that cast safely are cast once, any
other dtype is refused with a ``ValueError`` naming it.

The Boolean product picks, by work, between a blocked ``float32`` GEMM tile
and a ``uint64`` bit-packed kernel (method of Four Russians); a
*pre-packed* entry point (:meth:`BooleanSemiring.packed_words_matmul_batch`)
consumes bit-packed operands and returns bit-packed rows, so the engine's
persistent packed closure state never round-trips through 0/1 int64
between squarings (see :func:`repro.matmul.semiring3d.boolean_matmul_packed`).

Every batched semiring kernel takes a tile thread count ``threads``
(default 1): the selection fold and the packed Boolean kernels split their
work into disjoint batch (or, for a single block, column) ranges and run
them on that many threads (:func:`~repro.algebra.backends.run_tiles` --
bit-identical at every count, since no kernel merges across ranges in
scheduling order).  Kernels whose heavy lifting is a BLAS call (the
``float32`` GEMM tile, the plain ring product) accept the count and ignore
it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from repro.algebra.backends import run_tiles, tile_ranges
from repro.constants import INF

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
        self, x: np.ndarray, y: np.ndarray, *, threads: int = 1
    ) -> np.ndarray:
        """Batched block product: ``(B, m, k) x (B, k, n) -> (B, m, n)``.

        The executor layer calls it once per engine step, amortising the
        per-block Python overhead across the batch.  ``threads`` is the
        tile thread count of the kernels that split into tiles; it can
        never change values.
        """
        raise NotImplementedError

    def matmul_batch_with_witness(
        self, x: np.ndarray, y: np.ndarray, *, threads: int = 1, out=None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Batched product plus, per output entry, the inner index attaining it.

        ``out=(values, witnesses)`` receives the result in place.  Only
        meaningful for selection semirings; the default raises.
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


def int64_operand(arr) -> np.ndarray:
    """``arr`` as ``int64``, cast once if its entries cast safely.

    Integer and bool dtypes that cast safely to ``int64`` are cast; every
    other dtype (float, complex, object, ``uint64``) is refused with a
    ``ValueError`` naming it, so no kernel ever packs or shifts entries
    in a narrower or inexact dtype.
    """
    arr = np.asarray(arr)
    if arr.dtype == np.int64:
        return arr
    if arr.dtype.kind not in "biu" or not np.can_cast(arr.dtype, np.int64):
        raise ValueError(
            f"semiring products take integer or bool entries that fit "
            f"int64, got dtype {arr.dtype}"
        )
    return arr.astype(np.int64)


def _check_block(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Two ``int64`` blocks whose inner dimensions agree (ring axes may trail)."""
    x = int64_operand(x)
    y = int64_operand(y)
    if x.ndim < 2 or y.ndim != x.ndim or x.shape[1] != y.shape[0]:
        raise ValueError(
            f"incompatible block shapes {x.shape} x {y.shape} for a product"
        )
    return x, y


def _check_batch(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Two ``int64`` block stacks ``(B, m, k)`` and ``(B, k, n)``."""
    x = int64_operand(x)
    y = int64_operand(y)
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


def _batch_chunk(batch: int, per_block_entries: int, slab_entries: int) -> int:
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
        self, x: np.ndarray, y: np.ndarray, *, threads: int = 1
    ) -> np.ndarray:
        del threads  # one BLAS call; BLAS manages its own threads
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
        self, x: np.ndarray, y: np.ndarray, *, threads: int = 1
    ) -> np.ndarray:
        """Batched Boolean product: GEMM tiles or bit-packed, chosen by work.

        Large blocks take the bit-packed kernel; the small per-node blocks
        the engines batch stay on the GEMM tile (measured faster there --
        BLAS amortises while the 256-row chunk tables do not).  ``threads``
        only schedules the packed kernel's tiles; BLAS threads are BLAS's
        own business.
        """
        x, y = _check_batch(x, y)
        if self._use_packed(x.shape[1], x.shape[2], y.shape[2]):
            return self.packed_matmul_batch(x, y, threads=threads)
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
        self, x: np.ndarray, y: np.ndarray, *, threads: int = 1
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
        packed = self.packed_words_matmul_batch(xw, yw, k, threads=threads)
        return unpack_bool_rows(packed, n)

    def packed_words_matmul_batch(
        self, xw: np.ndarray, yw: np.ndarray, k: int, *, threads: int = 1
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
        chunks run on ``threads`` tile threads -- each chunk writes a
        disjoint output slice, so scheduling cannot change values.
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

        if threads > 1 and batch > 1:
            ranges = tile_ranges(batch, threads)
        else:
            ranges = [(0, batch)]
        run_tiles([partial(product_range, lo, hi) for lo, hi in ranges], threads)
        return out

    def add(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return ((a + b) > 0).astype(np.int64)


#: Lane entries one fold step sweeps.  Blocks are folded in chunks whose
#: ``(chunk, m, n)`` running best and candidate lanes hold about this many
#: entries each (512 KB of ``int32``), so both stay in a core's L2 while
#: the k-loop runs over them; a single block with ``m * n`` above it is
#: folded in column stripes of this size.  Measured fastest of 2^13..2^19
#: on the n=512 engine batch, one 512^2 block and the delta strips.
_FOLD_ENTRIES = 1 << 17

#: The lane dtypes a fold may run in, narrowest first.
_LANE_DTYPES = (np.int16, np.int32, np.int64)


@dataclass(frozen=True)
class _Lanes:
    """How one selection product packs its entries into integer lanes.

    An entry ``v`` encodes as ``clip(v, -offset, penalty - offset) +
    offset``: finite entries shift by ``offset``, ``+INF`` lands on
    ``penalty`` and max-min's ``-INF`` on ``0``.  A witnessed product
    shifts every encode left by ``kbits`` and carries the inner-index tag
    in the low bits (``kbits = 0`` for plain products).  ``dtype`` is the
    narrowest lane that holds every packed value
    (:meth:`_SelectionSemiring._lanes`).
    """

    dtype: type
    offset: int
    penalty: int
    kbits: int


def _encode(lane: np.ndarray, src: np.ndarray, lanes: _Lanes, addend) -> None:
    """Pack ``int64`` entries ``src`` into ``lane`` (same shape) in place.

    The clip maps the infinities onto the encode's ends before the cast,
    so no entry the lane cannot hold is ever cast; then the shift and one
    add of the offset and tags.
    """
    np.clip(
        src, -lanes.offset, lanes.penalty - lanes.offset, out=lane, casting="unsafe"
    )
    if lanes.kbits:
        lane <<= lanes.kbits
    lane += addend


class _SelectionSemiring(Semiring):
    """One narrow-lane fold for the selection semirings (min-plus, max-min).

    All four products -- min-plus and max-min, plain and witnessed -- run
    the same fold (:meth:`_fold`).  The operands are packed into integer
    lanes: a monotone encode of each entry, shifted left by ``kbits`` with
    the inner index ``j`` as a tag in the low bits (witnessed products
    only), in the narrowest of ``int16``/``int32``/``int64`` that holds
    every packed value (:meth:`_lanes`).  Per chunk of blocks the fold then
    runs a k-loop of ``fill`` (the elementwise semiring product of inner
    column ``j`` and inner row ``j``: an add for min-plus, a min for
    max-min) and ``merge`` (the semiring addition, a min or a max) over
    ``(chunk, m, n)`` lanes, and decodes values and witnesses into the
    ``int64`` outputs.  One min or max over packed ``(value, tag)`` lanes
    selects the best value and, among equal values, the lowest inner index
    -- NumPy's ``argmin``/``argmax`` convention -- so values and witnesses
    are bit-identical to the cube oracle (``tests/kernel_reference.py``)
    in every lane width.

    The exact column walk (:meth:`_walk`) is the only fallback: for an
    empty inner dimension, for entries too wide for ``int64`` lanes and
    for max-min entries beyond ``+-INF``.
    """

    has_witnesses = True

    #: The packed elementwise product, broadcasting (``out=`` capable).
    fill: np.ufunc
    #: The packed semiring addition.
    merge: np.ufunc
    #: Strict improvement of a challenger over an incumbent (the walk's
    #: merge test and :meth:`improves`).
    better: np.ufunc

    # -- subclass hooks -------------------------------------------------- #

    def _combine(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Elementwise semiring multiplication on ``int64`` (the walk's)."""
        raise NotImplementedError

    def _encoding(self, x: np.ndarray, y: np.ndarray) -> tuple[int, int, int] | None:
        """``(offset, penalty, top)`` for these operands, or ``None``.

        ``top`` bounds every untagged lane value the fold can form;
        ``None`` sends the product to the column walk.
        """
        raise NotImplementedError

    def _addends(self, k: int, lanes: _Lanes) -> tuple:
        """What the encode adds after the shift, ``(left, right)``.

        ``offset << kbits`` plus each inner index's tag: ``(k, 1)`` lane
        arrays, or the shifted offset alone for an operand without tags.
        """
        raise NotImplementedError

    def _decode(
        self,
        best: np.ndarray,
        lanes: _Lanes,
        values: np.ndarray,
        witness: np.ndarray | None,
    ) -> None:
        """Unpack folded lanes into the ``int64`` outputs (``best`` is scratch)."""
        raise NotImplementedError

    # -- the products ---------------------------------------------------- #

    def matmul_batch(
        self, x: np.ndarray, y: np.ndarray, *, threads: int = 1
    ) -> np.ndarray:
        """Batched plain product: the fold with ``kbits = 0`` and no tags."""
        values, _ = self._product(x, y, threads=threads, witnessed=False, out=None)
        return values

    def matmul_batch_with_witness(
        self, x: np.ndarray, y: np.ndarray, *, threads: int = 1, out=None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Batched product plus the lowest inner index attaining each entry.

        ``out=(values, witnesses)`` -- two writable ``(B, m, n)`` ``int64``
        arrays, views allowed -- receives the result instead of fresh
        arrays, on every path (fold and walk alike), and is returned.
        """
        return self._product(x, y, threads=threads, witnessed=True, out=out)

    def _product(self, x, y, *, threads: int, witnessed: bool, out):
        x, y = _check_batch(x, y)
        batch, m, k = x.shape
        shape = (batch, m, y.shape[2])
        if out is None:
            values = np.empty(shape, dtype=np.int64)
            witness = np.empty(shape, dtype=np.int64) if witnessed else None
        else:
            values, witness = out
            for arr in out:
                if arr.shape != shape or arr.dtype != np.int64:
                    raise ValueError(
                        f"out arrays must be {shape} int64, got "
                        f"{arr.shape} {arr.dtype}"
                    )
        kbits = (k - 1).bit_length() if witnessed and k else 0
        lanes = self._lanes(x, y, kbits) if k else None
        if lanes is None:
            self._walk(x, y, values, witness)
        elif values.size:
            self._fold(x, y, lanes, values, witness, threads)
        return values, witness

    def _lanes(self, x: np.ndarray, y: np.ndarray, kbits: int) -> _Lanes | None:
        """The narrowest lanes with head-room for this product, or ``None``.

        A lane of width ``w`` qualifies when ``top << kbits < 2^(w-2)``:
        ``top`` is ``2P`` for min-plus (a candidate adds two encodes) and
        ``P`` for max-min (a candidate selects one), with ``P`` the
        penalty.  At ``w = 64`` that is the packing's ``int64`` head-room
        rule; operands no lane holds take the column walk.
        """
        encoding = self._encoding(x, y)
        if encoding is None:
            return None
        offset, penalty, top = encoding
        for dtype in _LANE_DTYPES:
            if top << kbits < 1 << (np.iinfo(dtype).bits - 2):
                return _Lanes(dtype, offset, penalty, kbits)
        return None

    def _fold(self, x, y, lanes: _Lanes, values, witness, threads: int) -> None:
        """Run the fold's cells on ``threads`` tile threads.

        Each cell -- a batch range, or for a single block a column range --
        folds the full inner dimension into a disjoint slice of the
        outputs, so serial and threaded runs are bit-identical.
        """
        batch = x.shape[0]
        n = y.shape[2]
        cells = [(0, batch, 0, n)]
        if threads > 1 and batch > 1:
            cells = [(lo, hi, 0, n) for lo, hi in tile_ranges(batch, threads)]
        elif threads > 1 and n >= 2 * threads:
            cells = [(0, batch, lo, hi) for lo, hi in tile_ranges(n, threads)]
        run_tiles(
            [
                partial(self._fold_cell, x, y, lanes, values, witness, *cell)
                for cell in cells
            ],
            threads,
        )

    def _fold_cell(
        self, x, y, lanes: _Lanes, values, witness, b_lo, b_hi, c_lo, c_hi
    ) -> None:
        """Fold blocks ``[b_lo, b_hi)`` into output columns ``[c_lo, c_hi)``."""
        m, k = x.shape[1:]
        width = c_hi - c_lo
        # Columns per stripe (all of them unless one block overflows the
        # lane budget) and blocks per chunk.
        stripe = min(width, max(1, _FOLD_ENTRIES // m))
        chunk = max(1, min(b_hi - b_lo, _FOLD_ENTRIES // (m * stripe)))
        left_add, right_add = self._addends(k, lanes)
        # The left operand is transposed to (b, k, m), so inner column j is
        # a contiguous lane row like inner row j of the right operand.
        xl = np.empty((chunk, k, m), dtype=lanes.dtype)
        yl = np.empty((chunk, k, width), dtype=lanes.dtype)
        best = np.empty((chunk, m, stripe), dtype=lanes.dtype)
        cand = np.empty_like(best)
        fill, merge = self.fill, self.merge
        for b0 in range(b_lo, b_hi, chunk):
            b1 = min(b0 + chunk, b_hi)
            xs, ys = xl[: b1 - b0], yl[: b1 - b0]
            _encode(xs, x[b0:b1].transpose(0, 2, 1), lanes, left_add)
            _encode(ys, y[b0:b1, :, c_lo:c_hi], lanes, right_add)
            for s0 in range(0, width, stripe):
                s1 = min(s0 + stripe, width)
                acc = best[: b1 - b0, :, : s1 - s0]
                tmp = cand[: b1 - b0, :, : s1 - s0]
                yv = ys[:, :, s0:s1]
                fill(xs[:, 0, :, None], yv[:, None, 0, :], out=acc)
                for j in range(1, k):
                    fill(xs[:, j, :, None], yv[:, None, j, :], out=tmp)
                    merge(acc, tmp, out=acc)
                cols = slice(c_lo + s0, c_lo + s1)
                self._decode(
                    acc,
                    lanes,
                    values[b0:b1, :, cols],
                    None if witness is None else witness[b0:b1, :, cols],
                )

    def _walk(self, x, y, values, witness) -> None:
        """The exact column walk into ``values`` (and ``witness``).

        Walks the inner dimension once for the whole batch with a
        strict-improvement merge, so the lowest attaining index wins ties
        like the fold.  The fallback for an empty inner dimension and for
        entries too wide for ``int64`` lanes; plain products skip the
        witness.
        """
        k = x.shape[2]
        if witness is not None:
            witness[...] = 0
        if k == 0:
            values[...] = self.zero_value
            return
        values[...] = self._combine(x[:, :, 0:1], y[:, 0:1, :])
        for j in range(1, k):
            candidate = self._combine(x[:, :, j : j + 1], y[:, j : j + 1, :])
            if witness is None:
                self.merge(values, candidate, out=values)
                continue
            better = self.better(candidate, values)
            np.copyto(values, candidate, where=better)
            np.copyto(witness, j, where=better)

    def improves(self, challenger: np.ndarray, best: np.ndarray) -> np.ndarray:
        return self.better(challenger, best)

    def add(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return self.merge(a, b)

    def add_with_witness(
        self,
        a: np.ndarray,
        wa: np.ndarray,
        b: np.ndarray,
        wb: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        take_b = self.better(b, a)
        return np.where(take_b, b, a), np.where(take_b, wb, wa)


class MinPlusSemiring(_SelectionSemiring):
    """The tropical (min-plus) semiring used for distance products (§3.3).

    ``(S * T)[u, v] = min_w S[u, w] + T[w, v]``; the additive identity is
    :data:`~repro.constants.INF` and sums saturate there so that unreachable
    entries stay unreachable.  Witnesses record the minimising inner index,
    which §3.3 turns into routing tables.

    Packed lanes: with finite entries bounded by ``F`` in magnitude, an
    entry encodes as ``x + F`` (so sums are non-negative and ``<= 4F``) and
    ``INF`` as a penalty ``P``, the first power of two above ``4F`` (any
    candidate with an infinite addend lands ``>= P``, two infinite addends
    at ``2P``).  Witnessed products pack ``(x + F) << kbits`` on the left
    and ``((y + F) << kbits) + j`` on the right, so one add forms
    ``(sum << kbits) | j`` and one min selects the smallest sum and, among
    equal sums, the smallest ``j``.  Candidates at or above ``P`` decode to
    ``(INF, 0)``.
    """

    name = "min-plus"
    zero_value = INF
    one_value = 0
    fill = np.add
    merge = np.minimum
    better = np.less

    def _combine(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return saturating_add(a, b)

    def _encoding(self, x, y):
        finite_bound = 0
        for mat in (x, y):
            if mat.size == 0:
                continue
            # max |finite entry|: the global min is never INF-contaminated
            # (INF is the largest value); the masked max, needed only when
            # an INF is present, caps negatives at the 0 initial.
            lo = int(mat.min())
            hi = int(mat.max())
            if hi >= INF:
                hi = int(np.max(mat, initial=0, where=mat < INF))
            finite_bound = max(finite_bound, -lo, hi)
        penalty = 1 << max(3, (4 * finite_bound).bit_length())
        return finite_bound, penalty, 2 * penalty

    def _addends(self, k, lanes):
        if not lanes.kbits:
            return lanes.offset, lanes.offset
        base = lanes.offset << lanes.kbits
        return base, base + np.arange(k, dtype=lanes.dtype)[:, None]

    def _decode(self, best, lanes, values, witness):
        if witness is not None:
            np.bitwise_and(best, (1 << lanes.kbits) - 1, out=witness)
            best >>= lanes.kbits
        saturated = best >= lanes.penalty
        np.subtract(best, 2 * lanes.offset, out=values)
        np.copyto(values, INF, where=saturated)
        if witness is not None:
            np.copyto(witness, 0, where=saturated)


class MaxMinSemiring(_SelectionSemiring):
    """The bottleneck (max-min) semiring -- a natural extension target.

    ``(S * T)[u, v] = max_w min(S[u, w], T[w, v])`` computes widest
    bottleneck paths; included to demonstrate that the §2.1 engine is generic
    over semirings (the paper states Theorem 1 "over semirings").

    Packed lanes: the elementwise product is a *min*, so entries encode
    under a strictly monotone map ``e`` over the extended order
    ``-INF < finite < +INF`` -- ``e(-INF) = 0``, ``e(v) = v + F + 1`` for
    ``|v| <= F``, ``e(+INF) = P = 2F + 2`` -- and ``min(e(a), e(b)) =
    e(min(a, b))`` exactly.  The outer reduction is a *max*, so witnessed
    products tag inner index ``j`` with ``mask - j`` (``mask = 2^kbits -
    1``) on *both* operands: ``min(a + t, b + t) = min(a, b) + t``, and on
    equal values the largest tag -- the smallest ``j`` -- wins.  Operands
    outside ``[-INF, INF]`` take the column walk.
    """

    name = "max-min"
    zero_value = -INF
    one_value = INF
    fill = np.minimum
    merge = np.maximum
    better = np.greater

    def _combine(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return np.minimum(a, b)

    def _encoding(self, x, y):
        finite_bound = 0
        for mat in (x, y):
            if mat.size == 0:
                continue
            lo = int(mat.min())
            hi = int(mat.max())
            if hi > INF or lo < -INF:
                return None
            if hi == INF:
                hi = int(np.max(mat, initial=0, where=mat < INF))
            if lo == -INF:
                lo = int(np.min(mat, initial=0, where=mat > -INF))
            finite_bound = max(finite_bound, hi, -lo)
        penalty = 2 * finite_bound + 2
        return finite_bound + 1, penalty, penalty

    def _addends(self, k, lanes):
        if not lanes.kbits:
            return lanes.offset, lanes.offset
        top = ((lanes.offset + 1) << lanes.kbits) - 1
        tags = (top - np.arange(k, dtype=lanes.dtype))[:, None]
        return tags, tags

    def _decode(self, best, lanes, values, witness):
        if witness is not None:
            # An all--INF entry ties every candidate at e = 0, so the
            # largest tag wins and it decodes to witness 0 by itself.
            mask = (1 << lanes.kbits) - 1
            np.bitwise_and(best, mask, out=witness)
            np.subtract(mask, witness, out=witness)
            best >>= lanes.kbits
        negative = best == 0
        positive = best >= lanes.penalty
        np.subtract(best, lanes.offset, out=values)
        np.copyto(values, -INF, where=negative)
        np.copyto(values, INF, where=positive)


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
    "int64_operand",
    "packed_words",
    "pack_bool_rows",
    "unpack_bool_rows",
]
