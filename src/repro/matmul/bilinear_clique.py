"""Fast (bilinear) matrix multiplication on the clique (paper §2.2, Lemma 10).

Given any bilinear algorithm ``<d, d, d; m>`` with ``m <= n``, computes the
ring product ``P = S T`` on an ``n = q^2``-node clique in ``O(n^{1 - 2/sigma})``
rounds, where ``m = O(d^sigma)``.  The matrices are viewed as ``d x d`` block
matrices over the ring of ``(M/d) x (M/d)`` matrices; the bilinear
algorithm's ``m`` block products are farmed out one per node; the encode /
decode linear combinations (equations (1) and (2)) are computed locally
under a two-level partition in which node ``(x1, x2)`` owns cell
``(x1, x2)`` of every block (the paper's Figure 2).

Deviations from the paper's indexing, and why they are harmless:

* The paper takes a mixed-radix node id ``v1 v2 v3`` with ``v1 in [d]``,
  which needs ``d | sqrt(n)``.  We instead pad the *matrix* to
  ``M = d * q * c`` with ``c = ceil(q / d)`` and use the plain label
  ``(v div q, v mod q)``; padded rows/columns are identically zero and are
  materialised locally by receivers, so they cost no communication and only
  inflate local arithmetic by a ``(1 + d/q)^2`` factor.
* Strassen's algorithm (sigma = log2 7) stands in for the asymptotically
  best known bilinear algorithms, so the exponent realised by the running
  code is ``1 - 2/log2(7) ~ 0.2876`` rather than the paper's headline
  ``0.158`` (see DESIGN.md).

The algorithm is generic over any ring -- a
:class:`~repro.algebra.semirings.Semiring` with ``is_ring`` set; with
:data:`~repro.algebra.polynomial.POLYNOMIAL` it implements the Lemma 18
embedding (entries become coefficient vectors and widths are charged with
the ``O(M)`` blow-up).

Implementation note: all four communication phases run on the simulator's
array collectives -- :meth:`~repro.clique.model.CongestedClique.route_array`
for the entry distribution and row re-assembly and the block all-to-alls
:meth:`~repro.clique.model.CongestedClique.scatter_blocks` /
:meth:`~repro.clique.model.CongestedClique.gather_blocks` for the farm-out
and collection of the ``m`` block products.  The per-payload formulation
the engine was ported from lives on as a test reference
(``tests/tuple_reference.py``), which pins every phase's charge to it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.algebra.bilinear import (
    BilinearAlgorithm,
    largest_strassen_level,
    strassen_power,
)
from repro.algebra.semirings import PLUS_TIMES, Semiring
from repro.clique.arena import ExchangeArena
from repro.clique.messages import block_widths
from repro.clique.model import CongestedClique
from repro.errors import CliqueSizeError
from repro.matmul.layout import GridLayout


def default_algorithm(n: int) -> BilinearAlgorithm:
    """The deepest Strassen power whose product count fits the clique."""
    return strassen_power(largest_strassen_level(n))


@dataclass(frozen=True)
class GridPlan:
    """Input-independent schedule of one §2.2 product on an ``n``-clique.

    All destination/index arrays of the four exchanges are pure functions of
    ``(n, d)``; memoised via :func:`grid_plan` so iterated ring products
    (Lemma 19 squarings, Seidel levels, Boolean closures) replan nothing.
    """

    layout: GridLayout
    #: cell-column membership, ``(q, d*c)``: padded columns of cell-col x2.
    col_index: np.ndarray
    #: cell-row of each real matrix row, ``(n,)``.
    x1_of_row: np.ndarray
    #: step-1 destinations, ``(n, q)``: the q cell owners of each row.
    dests1: np.ndarray
    #: row offsets for cell-row 0 in (block, offset) emission order, ``(d*c,)``.
    r_grid: np.ndarray
    #: step-7 destinations per node (real rows only), ragged tuple of arrays.
    dests7: tuple[np.ndarray, ...]
    #: step-7 keep-mask per node (which of the d*c candidate rows are real).
    keep7: tuple[np.ndarray, ...]


@lru_cache(maxsize=None)
def grid_plan(n: int, d: int) -> GridPlan:
    """The memoised :class:`GridPlan` for an ``n = q^2``-clique and grid ``d``."""
    layout = GridLayout.for_clique(n, d)
    q, c = layout.q, layout.c
    block_rows = c * q
    rows = np.arange(n, dtype=np.int64)
    x1_of_row = (rows % block_rows) // c
    col_index = np.stack(
        [layout.indices_of_cell_axis(x2) for x2 in range(q)]
    )
    dests1 = x1_of_row[:, None] * q + np.arange(q, dtype=np.int64)[None, :]
    r_grid = (
        np.arange(d, dtype=np.int64)[:, None] * block_rows
        + np.arange(c, dtype=np.int64)[None, :]
    ).reshape(-1)
    dests7: list[np.ndarray] = []
    keep7: list[np.ndarray] = []
    for u in range(n):
        r_vals = r_grid + (u // q) * c
        keep = r_vals < n
        dests7.append(r_vals[keep])
        keep7.append(keep)
    return GridPlan(
        layout=layout,
        col_index=col_index,
        x1_of_row=x1_of_row,
        dests1=dests1,
        r_grid=r_grid,
        dests7=tuple(dests7),
        keep7=tuple(keep7),
    )


def phase_load_bounds(
    layout: GridLayout,
    m: int,
    *,
    entry_words: int,
    hat_words: int,
    prod_words: int,
    out_words: int | None = None,
) -> dict[str, int]:
    """Per-node load ceilings for the four §2.2 exchanges.

    Derived from the layout instead of a magic slack constant; a violation
    is an implementation bug, not padding noise.  With ``dc = m_padded / q``
    rows per cell-row and each width taken at the widest entry actually
    shipped in that phase (inputs for step 1, encoded combinations for
    step 3, block products for step 5, and *decoded* output cells for
    step 7 -- the equation-(2) sums can be a word wider than the products
    they combine):

    * **step 1** -- every node ships ``q`` pieces of ``2 dc`` entries
      (``2 m_padded`` entries sent); node ``(x1, x2)`` receives from the
      ``<= dc`` real rows in cell-row ``x1``, ``2 dc`` entries each.
    * **step 3** -- every node ships ``2 c^2`` entries to each of the ``m``
      product nodes; a product node receives ``2 c^2`` entries from all
      ``n = q^2`` nodes.
    * **step 5** -- each product node returns ``c^2`` entries to all ``n``
      nodes; every node receives ``c^2`` entries from the ``m`` workers.
    * **step 7** -- node ``(x1, x2)`` ships ``<= dc`` pieces of ``dc``
      entries; a row owner receives ``dc`` entries from each of its ``q``
      cell owners.

    These are ceilings, not the billed maxima: they count the pieces a
    node addresses to itself, which stay home for free, and in steps 1 and
    7 every padded row of a cell-row.  The exact maxima, and so the exact
    bill, are :func:`repro.matmul.exponent.predicted_bilinear_rounds`'s.
    """
    q, c, mm = layout.q, layout.c, layout.m_padded
    dc = mm // q  # = d * c, rows per cell-row
    if out_words is None:
        out_words = prod_words
    return {
        "step1": max(2 * mm, 2 * dc * dc) * entry_words,
        "step3": 2 * max(m, q * q) * c * c * hat_words,
        "step5": max(m, q * q) * c * c * prod_words,
        "step7": max(dc * dc, q * dc) * out_words,
    }


def _check_operands(
    clique: CongestedClique,
    s: np.ndarray,
    t: np.ndarray,
    algorithm: BilinearAlgorithm | None,
) -> tuple[BilinearAlgorithm, GridLayout]:
    n = clique.n
    if algorithm is None:
        algorithm = default_algorithm(n)
    if algorithm.m > n:
        raise CliqueSizeError(
            f"bilinear algorithm {algorithm.name} needs m={algorithm.m} <= n={n}"
        )
    layout = GridLayout.for_clique(n, algorithm.d)
    if np.asarray(s).shape[:2] != (n, n) or np.asarray(t).shape[:2] != (n, n):
        raise ValueError(f"operands must be {n} x {n} (+ ring axes)")
    return algorithm, layout


def bilinear_matmul(
    clique: CongestedClique,
    s: np.ndarray,
    t: np.ndarray,
    algorithm: BilinearAlgorithm | None = None,
    *,
    ring: Semiring = PLUS_TIMES,
    phase: str = "bilinear",
    arena: ExchangeArena | None = None,
) -> np.ndarray:
    """Multiply over a ring with a bilinear algorithm (Theorem 1, ring part).

    Args:
        clique: an ``n``-node clique with ``n`` a perfect square.
        s: left operand, shape ``(n, n)`` (+ trailing ring axes); row ``v``
            owned by node ``v``.
        t: right operand, same convention.
        algorithm: the bilinear algorithm to deploy; defaults to the deepest
            Strassen power with ``7^l <= n``.
        ring: a semiring with ``is_ring`` set (Strassen subtracts): local
            block arithmetic and word-width rules.
        phase: cost-meter label prefix.
        arena: per-session :class:`~repro.clique.arena.ExchangeArena` for
            the GridPlan-sized padded operands, send stacks and local cell
            grids; ``None`` uses a fresh throwaway arena (identical results
            and charges).  Zero padding is written once at buffer birth and
            preserved across reuses (only real positions are rewritten).

    Returns:
        ``P = S T`` with the same shape convention as the inputs.
    """
    if not ring.is_ring:
        raise ValueError(f"the bilinear engine needs a ring, not {ring.name!r}")
    n = clique.n
    algorithm, layout = _check_operands(clique, s, t, algorithm)
    plan = grid_plan(n, algorithm.d)
    q, d, c, mm = layout.q, layout.d, layout.c, layout.m_padded
    m = algorithm.m
    trailing = np.asarray(s).shape[2:]
    nt = len(trailing)
    word_bits = clique.word_bits
    block_rows = c * q
    side = q * c
    if arena is None:
        arena = ExchangeArena()

    # Padded operands: the padding rows/columns are identically zero; arena
    # buffers are born zeroed and only the real [:n, :n] region is ever
    # rewritten, so the invariant survives reuse.
    sp = arena.buffer("grid/sp", (mm, mm) + trailing)
    tp = arena.buffer("grid/tp", (mm, mm) + trailing)
    sp[:n, :n] = s
    tp[:n, :n] = t

    # col_index[x2] = the d*c padded columns in cell-column x2.
    col_index = plan.col_index  # (q, d*c)
    dc = d * c

    # -------- Step 1: distribute the entries (2 M words per node). ------ #
    # Node v ships, for each x2, the (S, T) column slices of its row that
    # land in cell (x1(v), x2) -- one (2, d*c) piece per destination.
    s_pieces = sp[:n][:, col_index]  # (n, q, dc) + trailing
    t_pieces = tp[:n][:, col_index]
    widths1 = np.maximum(
        1,
        block_widths(s_pieces.reshape(n * q, -1), word_bits).reshape(n, q)
        + block_widths(t_pieces.reshape(n * q, -1), word_bits).reshape(n, q),
    )
    blocks1 = arena.buffer("grid/blocks1", (n, q, 2, dc) + trailing)
    blocks1[:, :, 0] = s_pieces
    blocks1[:, :, 1] = t_pieces
    entry_w = max(
        1, ring.entry_words(sp, word_bits), ring.entry_words(tp, word_bits)
    )
    bounds = phase_load_bounds(
        layout, m, entry_words=entry_w, hat_words=1, prod_words=1
    )
    inboxes = clique.route_array(
        plan.dests1,
        blocks1,
        widths=widths1,
        phase=f"{phase}/step1-distribute",
        expect_max_load=bounds["step1"],
    )

    # Assemble the local cell grid LS/LT[i, j] in (d, d, c, c, ...) layout.
    # The scatter pattern below is static (same real-sender positions every
    # product), so the zero padding of the arena grids persists.
    local_s = arena.buffer("grid/local_s", (n, d, d, c, c) + trailing)
    local_t = arena.buffer("grid/local_t", (n, d, d, c, c) + trailing)
    for u in range(n):
        inbox = inboxes[u]
        src = inbox.sources
        i_arr = src // block_rows
        tt_arr = (src % block_rows) % c
        pieces = inbox.blocks.reshape((src.shape[0], 2, d, c) + trailing)
        local_s[u][i_arr, :, tt_arr] = pieces[:, 0]
        local_t[u][i_arr, :, tt_arr] = pieces[:, 1]

    # -------- Step 2: encode (equation (1)) -- local. ------------------- #
    enc_a, enc_b = algorithm.encode_matrices()
    flat_s = local_s.reshape((n, d * d, c, c) + trailing)
    flat_t = local_t.reshape((n, d * d, c, c) + trailing)
    # (m, n, c, c, ...) -> (n, m, c, c, ...): cell (x1, x2) of each S^(w).
    s_hats = np.tensordot(enc_a, flat_s, axes=([1], [1])).swapaxes(0, 1)
    t_hats = np.tensordot(enc_b, flat_t, axes=([1], [1])).swapaxes(0, 1)

    # -------- Step 3: farm the linear combinations out to the workers. --- #
    # Node (x1, x2) sends cell (x1, x2) of S^(w), T^(w) to node w;
    # O(n^{2-2/sigma}) words per node.  A block all-to-all onto nodes < m.
    hat_entry_w = max(
        ring.entry_words(s_hats, word_bits), ring.entry_words(t_hats, word_bits)
    )
    widths3 = np.maximum(
        1,
        block_widths(s_hats.reshape(n * m, -1), word_bits).reshape(n, m)
        + block_widths(t_hats.reshape(n * m, -1), word_bits).reshape(n, m),
    )
    bounds = phase_load_bounds(
        layout, m, entry_words=entry_w, hat_words=hat_entry_w, prod_words=1
    )
    # (m, n, 2, c, c, ...): worker w's cells from every node.
    hats = clique.scatter_blocks(
        np.stack([s_hats, t_hats], axis=2),
        widths=list(widths3),
        phase=f"{phase}/step3-scatter-hats",
        expect_max_load=bounds["step3"],
    )

    # -------- Step 4: the m block products -- local at nodes w < m. ----- #
    # Sender u = (x1, x2) owns cell (x1, x2): un-interleave the (q, q) grid
    # of (c, c) cells into full (side, side) operands.  The m products run
    # as one batched executor call.
    grid_axes = (0, 2, 1, 3) + tuple(range(4, 4 + nt))
    full = (
        hats.reshape((m, q, q, 2, c, c) + trailing)
        .transpose((0, 3, 1, 4, 2, 5) + tuple(range(6, 6 + nt)))
        .reshape((m, 2, side, side) + trailing)
    )
    p_hat = clique.executor.ring_products(
        ring, np.ascontiguousarray(full[:, 0]), np.ascontiguousarray(full[:, 1])
    )
    # Ring products may widen the entry representation (the polynomial ring's
    # degree grows under convolution), so downstream buffers use the output
    # trailing shape.
    trailing_out = p_hat.shape[3:]
    nto = len(trailing_out)

    # -------- Step 5: collect the products back at the cell owners. ------ #
    cells_back = (
        p_hat.reshape((m, q, c, q, c) + trailing_out)
        .transpose((0, 1, 3, 2, 4) + tuple(range(5, 5 + nto)))
        .reshape((m, n, c, c) + trailing_out)
    )
    prod_entry_w = ring.entry_words(p_hat, word_bits)
    widths5 = np.maximum(
        1, block_widths(cells_back.reshape(m * n, -1), word_bits).reshape(m, n)
    )
    bounds = phase_load_bounds(
        layout, m, entry_words=entry_w, hat_words=hat_entry_w,
        prod_words=prod_entry_w,
    )
    # (n, m, c, c, ...): node u's stack of product cells, indexed by w.
    stacks = clique.gather_blocks(
        cells_back,
        widths=list(widths5),
        phase=f"{phase}/step5-scatter-products",
        expect_max_load=bounds["step5"],
    )

    # -------- Step 6: decode (equation (2)) -- local. ------------------- #
    dec = algorithm.decode_matrix()  # (d*d, m)
    p_cells = (
        np.tensordot(dec, stacks, axes=([1], [1]))
        .swapaxes(0, 1)
        .reshape((n, d, d, c, c) + trailing_out)
    )

    # -------- Step 7: re-assemble rows at their owners. ------------------ #
    # Node (x1, x2) owns cell rows {i * block_rows + x1 c + tt}; each piece
    # is the (d, c) slab of columns the cell contributes to that row.
    bounds = phase_load_bounds(
        layout, m, entry_words=entry_w, hat_words=hat_entry_w,
        prod_words=prod_entry_w,
        out_words=ring.entry_words(p_cells, word_bits),
    )
    blocks7: list[np.ndarray] = []
    widths7: list[np.ndarray] = []
    for u in range(n):
        pieces = (
            p_cells[u]
            .transpose(grid_axes)
            .reshape((dc, d, c) + trailing_out)[plan.keep7[u]]
        )
        blocks7.append(pieces)
        widths7.append(
            np.maximum(
                1,
                block_widths(pieces.reshape(pieces.shape[0], -1), word_bits),
            )
        )
    inboxes = clique.route_array(
        list(plan.dests7),
        blocks7,
        widths=widths7,
        phase=f"{phase}/step7-assemble",
        expect_max_load=bounds["step7"],
    )

    p = np.zeros((n, n) + trailing_out, dtype=np.int64)
    row = np.zeros((mm,) + trailing_out, dtype=np.int64)
    for v in range(n):
        inbox = inboxes[v]
        x2_arr = inbox.sources % q  # one distinct cell column per sender
        cols = col_index[x2_arr].reshape(-1)
        row[:] = 0
        row[cols] = inbox.blocks.reshape((cols.shape[0],) + trailing_out)
        p[v] = row[:n]
    return p


__all__ = [
    "bilinear_matmul",
    "default_algorithm",
    "phase_load_bounds",
    "GridPlan",
    "grid_plan",
]
