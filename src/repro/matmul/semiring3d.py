"""The 3D semiring matrix multiplication algorithm (paper §2.1, Theorem 1).

Computes ``P = S T`` over any semiring on a congested clique of ``n = q^3``
nodes in ``O(n^{1/3})`` rounds.  The ``n^3`` elementary products are viewed
as the cube ``V x V x V``, partitioned into ``n`` subcubes of side
``n^{2/3}``; node ``v = v1 v2 v3`` computes the block product

    ``P^{(v2)}[v1**, v3**] = S[v1**, v2**] . T[v2**, v3**]``

and the partial products are recombined with semiring addition.  The
communication pattern is oblivious (input-independent), matching the paper's
observation that the static routing of Dolev et al. suffices.

Input/output convention (paper §2): node ``v`` initially holds row ``v`` of
both ``S`` and ``T``, and finally holds row ``v`` of ``P``.  The simulator
passes full matrices for convenience, but every step below only touches the
rows a node legitimately owns or has received.

For selection semirings (min-plus, max-min) the algorithm optionally returns
a *witness matrix*: ``W[u, v]`` is an inner index attaining ``P[u, v]``,
which §3.3 turns into routing tables.  Witnesses ride along with the data
(doubling payload width) and fall out of the local block products for free,
exactly because the semiring engine takes arg-min locally.

Implementation notes:

* Both exchanges run on the simulator's **array-native fast path** with
  *planned delivery*
  (:meth:`~repro.clique.model.CongestedClique.route_array_take`): the
  charged round counts are bit-identical to the tuple formulation and to
  sort-based :meth:`~repro.clique.model.CongestedClique.route_array`
  delivery (see the equivalence tests), but inboxes are gathered by the
  plan's precomputed index vectors into per-session
  :class:`~repro.clique.arena.ExchangeArena` buffers -- no per-exchange
  argsort, no concatenated temporaries.
* The exchange pattern is input-independent, so every static index array
  (destinations, tags, per-node block bases, inbox composition, delivery
  gathers) is computed once per clique size and memoised in a
  :class:`CubePlan` -- repeated squarings (APSP, girth, closure) replan
  nothing.
* The ``n`` local block products of step 2 run as **one batched call** on
  the clique's :class:`~repro.clique.executor.Executor`, whose tile
  thread count may split it; values (hence widths and rounds) are
  bit-identical at every thread count.
* A witnessed product's kernel decodes values and witnesses **straight
  into the step-3 send buffer** (the executor's ``out=``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.algebra.semirings import (
    MIN_PLUS,
    PLUS_TIMES,
    Semiring,
    int64_operand,
    pack_bool_rows,
    packed_words,
    unpack_bool_rows,
)
from repro.clique.arena import ExchangeArena
from repro.clique.messages import block_widths, words_for_value
from repro.clique.model import CongestedClique
from repro.errors import CliqueModelError
from repro.matmul.layout import CubeLayout

#: Slack multiplier on the asserted per-node load bounds: the analysis bound
#: is 2 n^{4/3} *entries*; the width in words multiplies it, and padding can
#: add a little, so algorithms assert with a factor-4 safety margin (a true
#: implementation bug overshoots by far more).
_LOAD_SLACK = 4

@dataclass(frozen=True)
class CubePlan:
    """Input-independent schedule of one §2.1 product on an ``n``-clique.

    Everything here is a pure function of the clique size: destination
    arrays for both routed exchanges and the decode plan (which received
    piece is an S piece, where each node's block product sits in the global
    index space).  Memoised via :func:`cube_plan`, so an engine session's
    ``ceil(log n)`` squarings share one plan instead of replanning per
    call.
    """

    layout: CubeLayout
    #: first digit of every node id, ``(n,)``.
    v1_of: np.ndarray
    #: step-1 destinations, ``(n, 2 q^2)`` (S pieces then T pieces).
    dests1: np.ndarray
    #: step-1 decode plan: mask of S pieces in each node's sorted inbox,
    #: ``(n, 2 q^2)`` -- the communication pattern is oblivious, so
    #: receivers know statically which piece is which (no headers shipped,
    #: exactly as the analysis assumes).
    from_s: np.ndarray
    #: step-3 destinations, ``(n, q^2)``: row owners of each product row.
    dests3: np.ndarray
    #: global inner-index base of each node's block product, ``(n,)``.
    k_base: np.ndarray
    #: step-1 planned delivery gather, ``(2 n q^2,)``: flat sent-piece
    #: indices whose gather yields all S operand blocks (first half) then
    #: all T operand blocks (second half), each in ``(node, block-row)``
    #: order -- the delivery sort *composed with* the ``from_s`` decode, so
    #: arena delivery skips both the per-exchange argsort and the masked
    #: restack.  Delivery order is node-local, hence free in the model.
    take_st: np.ndarray
    #: step-3 planned delivery gather, ``(n q^2,)``: the stable
    #: by-destination order of the recombination exchange.
    take3: np.ndarray
    #: owner node of each ``take_st`` output slot, ``(2 n q^2,)`` -- shipped
    #: with the gather so the model can enforce receiver locality.
    owners_st: np.ndarray
    #: owner node of each ``take3`` output slot, ``(n q^2,)``.
    owners3: np.ndarray

    @property
    def q(self) -> int:
        return self.layout.q


@lru_cache(maxsize=None)
def cube_plan(n: int) -> CubePlan:
    """The memoised :class:`CubePlan` for a clique of ``n = q^3`` nodes."""
    layout = CubeLayout.for_clique(n)
    q = layout.q
    q2 = q * q
    ids = np.arange(n, dtype=np.int64)
    v1_of = ids // q2
    v2_of = (ids // q) % q
    # Node v sends S[v, u2**] to each u in v1** and T[v, w3**] to each w in
    # *v1* (i.e. w2 = v1); destinations in the tuple path's emission order
    # (S pieces by (u2, u3), then T pieces by (w1, w3)).
    s_dests = v1_of[:, None] * q2 + np.arange(q2, dtype=np.int64)[None, :]
    w1w3 = (
        np.arange(q, dtype=np.int64)[:, None] * q2
        + np.arange(q, dtype=np.int64)[None, :]
    ).reshape(-1)
    t_dests = (v1_of * q)[:, None] + w1w3[None, :]
    # Node u's inbox holds q^2 S pieces from the senders in u1** and q^2 T
    # pieces from the senders in u2**, sorted by (sender, emission order):
    # all S first when u1 < u2, all T first when u1 > u2, and S/T
    # alternating per sender when u1 == u2 (each sender emits its S piece
    # before its T piece).
    from_s = np.zeros((n, 2 * q2), dtype=bool)
    from_s[v1_of < v2_of, :q2] = True
    from_s[v1_of > v2_of, q2:] = True
    from_s[v1_of == v2_of, 0::2] = True
    dests1 = np.concatenate([s_dests, t_dests], axis=1)
    # Planned delivery gathers: the stable by-destination sort is a pure
    # function of the static destination arrays, so it is computed once
    # here instead of per exchange; composing it with the from_s decode
    # lets step 2 gather its S/T operand blocks straight out of the sent
    # batch (one np.take into an arena buffer).
    order1 = np.argsort(dests1.reshape(-1), kind="stable").reshape(n, 2 * q2)
    take_st = np.concatenate([order1[from_s], order1[~from_s]])
    inbox_owner = np.repeat(ids, q2)
    return CubePlan(
        layout=layout,
        v1_of=v1_of,
        dests1=dests1,
        from_s=from_s,
        # Step 3: node v holds P^{(v2)}[v1**, v3**] and returns row u's
        # slice to node u for each u in v1** -- the same id range as the
        # S-piece destinations.
        dests3=s_dests,
        k_base=v2_of * q2,
        take_st=take_st,
        take3=np.argsort(s_dests.reshape(-1), kind="stable"),
        owners_st=np.tile(inbox_owner, 2),
        owners3=inbox_owner,
    )


def semiring_matmul(
    clique: CongestedClique,
    s: np.ndarray,
    t: np.ndarray,
    semiring: Semiring = PLUS_TIMES,
    *,
    with_witnesses: bool = False,
    phase: str = "semiring3d",
    arena: ExchangeArena | None = None,
) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
    """Multiply ``n x n`` matrices over a semiring in ``O(n^{1/3})`` rounds.

    Args:
        clique: an ``n``-node clique with ``n`` a perfect cube (pad with
            :func:`repro.matmul.layout.next_cube` otherwise).
        s: left operand, ``int64``, row ``v`` owned by node ``v``.
        t: right operand, same convention.
        semiring: the semiring to multiply over (default: integer ring --
            which §2.1 also covers, just without the §2.2 speedup).
        with_witnesses: if set (selection semirings only), also return the
            witness matrix ``W`` with ``P[u,v] = S[u, W[u,v]] (x) T[W[u,v], v]``.
        phase: cost-meter label prefix.
        arena: the :class:`~repro.clique.arena.ExchangeArena` holding this
            pipeline's send/recv buffers; engine sessions pass their
            per-session arena so repeated squarings reuse every buffer.
            ``None`` uses a fresh throwaway arena (identical results and
            charges, just per-call allocations).

    Returns:
        ``P``, or ``(P, W)`` when ``with_witnesses`` is set.
    """
    n = clique.n
    plan = cube_plan(n)
    q = plan.q
    s = np.ascontiguousarray(int64_operand(s))
    t = np.ascontiguousarray(int64_operand(t))
    if s.shape != (n, n) or t.shape != (n, n):
        raise ValueError(f"operands must be {n} x {n} matrices")
    if with_witnesses and not semiring.has_witnesses:
        raise ValueError(f"semiring {semiring.name} does not support witnesses")
    if arena is None:
        arena = ExchangeArena()
    word_bits = clique.word_bits
    q2 = q * q

    # ---------------- Step 1: distribute the entries. ------------------- #
    # Each node ships 2 q^2 submatrices of q^2 entries: 2 n^{4/3} words at
    # unit width.  All pieces are q^2-entry row slices, so the whole step is
    # one array-native routed exchange on the plan's static destinations.
    # The send batch is assembled by broadcast-assignment into one arena
    # buffer (no repeat/tile/concatenate temporaries).
    s3 = s.reshape(n, q, q2)  # s3[v, u2] = S[v, u2**]
    t3 = t.reshape(n, q, q2)  # t3[v, w3] = T[v, w3**]
    pieces = arena.buffer("cube/pieces", (n, 2 * q2, q2))
    # S pieces at row (u2 q + u3) = s3[v, u2]; T pieces at (w1 q + w3) =
    # t3[v, w3] -- the tuple path's emission order.
    pieces[:, :q2].reshape(n, q, q, q2)[:] = s3[:, :, None, :]
    pieces[:, q2:].reshape(n, q, q, q2)[:] = t3[:, None, :, :]

    # Honest per-piece widths: size * words-for-max-abs, per q^2-slice.
    widths = arena.buffer("cube/widths1", (n, 2 * q2))
    widths[:, :q2].reshape(n, q, q)[:] = block_widths(
        s3.reshape(n * q, q2), word_bits
    ).reshape(n, q)[:, :, None]
    widths[:, q2:].reshape(n, q, q)[:] = block_widths(
        t3.reshape(n * q, q2), word_bits
    ).reshape(n, q)[:, None, :]

    max_abs = max(
        int(np.max(np.abs(s))) if s.size else 0,
        int(np.max(np.abs(t))) if t.size else 0,
    )
    max_entry_words = words_for_value(max_abs, word_bits)
    # Planned delivery: one fused gather lands the operand blocks of step 2
    # directly (delivery sort composed with the from_s decode -- no inbox
    # restacking), charged exactly as route_array would charge.
    st_blocks = clique.route_array_take(
        plan.dests1,
        pieces,
        widths=widths,
        take=plan.take_st,
        out=arena.buffer("cube/st_blocks", (2 * n * q2, q2)),
        owners=plan.owners_st,
        phase=f"{phase}/step1-distribute",
        expect_max_load=_LOAD_SLACK * 2 * q2 * q2 * max_entry_words,
    )

    # ---------------- Step 2: local block products. --------------------- #
    # Node u = (u1, u2, u3) assembles S[u1**, u2**] and T[u2**, u3**].  The
    # inbox composition is the plan's static decode (exactly one S piece
    # from each of the q^2 senders in u1**, ascending -- i.e. already in
    # block-row order -- and one T piece from each sender in u2**), baked
    # into ``take_st`` above.
    s_blocks = st_blocks[: n * q2].reshape(n, q2, q2)
    t_blocks = st_blocks[n * q2 :].reshape(n, q2, q2)
    # The n block products run as one batched executor call; a witnessed
    # product lands straight in the step-3 send buffer.
    if with_witnesses:
        blocks3 = arena.buffer("cube/blocks3w", (n, q2, 2, q2))
        products, wit_blocks = clique.executor.semiring_products(
            semiring,
            s_blocks,
            t_blocks,
            with_witnesses=True,
            out=(blocks3[:, :, 0], blocks3[:, :, 1]),
        )
        # Local inner index -> global node id, per block product.
        wit_blocks += plan.k_base[:, None, None]
    else:
        blocks3 = products = clique.executor.semiring_products(
            semiring, s_blocks, t_blocks
        )

    # ---------------- Step 3: distribute the partial products. ---------- #
    # Node v holds P^{(v2)}[v1**, v3**]; it sends row u's slice to node u
    # for each u in v1**.  n^{4/3} words each way (x2 with witnesses): each
    # product row ships with its witness row as one (2, q^2) piece, the
    # witness half charged at witness_words/entry.
    witness_words = words_for_value(n, word_bits)
    widths3 = block_widths(products.reshape(-1, q2), word_bits).reshape(n, q2)
    if with_witnesses:
        widths3 += q2 * witness_words
        recomb_key, recomb_shape = "cube/recombw", (n * q2, 2, q2)
    else:
        recomb_key, recomb_shape = "cube/recomb", (n * q2, q2)
    flat_recombined = clique.route_array_take(
        plan.dests3,
        blocks3,
        widths=widths3,
        take=plan.take3,
        out=arena.buffer(recomb_key, recomb_shape),
        owners=plan.owners3,
        phase=f"{phase}/step3-recombine",
        expect_max_load=_LOAD_SLACK
        * q2
        * q2
        * (max_entry_words + (witness_words if with_witnesses else 0)),
    )

    # ---------------- Step 4: assemble the result rows. ----------------- #
    # Node v receives exactly one piece from each sender u in v1**; sender
    # u = (u1, u2, u3) contributed the slot (w2 = u2, cols u3**), so the
    # ascending-source inbox *is* the (w2, u3) grid -- a reshape, no
    # scatter.  The q-way semiring reduction runs batched over all nodes,
    # in the same w2 order as the per-node loop (bit-identical values and
    # witness tie-breaks).
    recombined = flat_recombined.reshape((n, q2) + flat_recombined.shape[1:])
    if with_witnesses:
        rows = recombined[:, :, 0].reshape(n, q, n)
        row_wits = recombined[:, :, 1].reshape(n, q, n)
        # A witness is a node id; one a fault layer corrupted must not
        # reach the routing-table update as an index.
        if int(row_wits.min()) < 0 or int(row_wits.max()) >= n:
            raise CliqueModelError(
                f"phase {phase}/step3-recombine delivered a witness outside "
                f"[0, {n})"
            )
        acc, acc_w = rows[:, 0], row_wits[:, 0]
        for w2 in range(1, q):
            acc, acc_w = semiring.add_with_witness(
                acc, acc_w, rows[:, w2], row_wits[:, w2]
            )
        return acc, acc_w
    rows = recombined.reshape(n, q, n)
    acc = rows[:, 0]
    for w2 in range(1, q):
        acc = semiring.add(acc, rows[:, w2])
    return acc


# --------------------------------------------------------------------------- #
# Persistent packed Boolean pipeline (kernel generation 3)
# --------------------------------------------------------------------------- #
#
# A Boolean matrix on the cube layout decomposes into n * q pieces of q^2
# bits each -- node v's row is the q column slices S[v, u2**] -- and *every*
# payload the §2.1 pipeline ships is such a piece (step 1 ships the operand
# slices, step 3 ships product-row slices).  Bit-packing each piece
# independently (little-endian, zero-padded to whole uint64 words, see
# pack_bool_rows) therefore gives a representation that is **closed under
# the whole pipeline**: delivered step-1 blocks are exactly the packed
# operands of the Four-Russians kernel, the kernel's packed output rows are
# exactly the step-3 pieces, and the step-4 q-way Boolean reduction is a
# word-parallel bitwise OR.  A closure can stay packed across all
# ceil(log n) squarings and unpack once at the end.
#
# Charges are *bit-identical* to the unpacked path by construction, not by
# luck: the simulator charges a piece at ``entries x words_for_value(max
# |entry|)``, and for 0/1 data ``words_for_value`` is 1 word for the 0 and
# the 1 case alike (both encode in 2 bits), so every q^2-bit piece of the
# unpacked path bills exactly ``q^2`` words whatever its contents.  The
# packed path ships pw = ceil(q^2/64) words per piece but passes those same
# constant widths explicitly -- the meter sees the identical bill,
# phase-for-phase, while the simulator wall-clock moves 64x fewer payload
# words (the point of the exercise).  Equivalence (values, rounds, meters)
# is pinned in tests/test_kernel_gen2.py and test_kernel_gen3.py.


def pack_bool_matrix(matrix: np.ndarray, n: int) -> np.ndarray:
    """Pack an ``n x n`` 0/1 matrix into the cube-piece word layout.

    Returns ``(n, q, pw)`` ``int64``: row ``v``'s ``q`` column slices
    ``(matrix[v, u2**] > 0)``, each bit-packed to ``pw = ceil(q^2/64)``
    words.  Thresholding matches the engines' Boolean convention
    (entries ``> 0`` are edges).
    """
    plan = cube_plan(n)
    q = plan.q
    matrix = np.asarray(matrix)
    if matrix.shape != (n, n):
        raise ValueError(f"matrix must be {n} x {n}, got {matrix.shape}")
    return pack_bool_rows(matrix.reshape(n, q, q * q))


def unpack_bool_matrix(packed: np.ndarray, n: int) -> np.ndarray:
    """Inverse of :func:`pack_bool_matrix`: the 0/1 ``int64`` matrix."""
    plan = cube_plan(n)
    q = plan.q
    if packed.shape != (n, q, packed_words(q * q)):
        raise ValueError(
            f"packed matrix must be {(n, q, packed_words(q * q))}, "
            f"got {packed.shape}"
        )
    return unpack_bool_rows(packed, q * q).reshape(n, n)


def boolean_matmul_packed(
    clique: CongestedClique,
    sp: np.ndarray,
    tp: np.ndarray,
    *,
    phase: str = "semiring3d",
    arena: ExchangeArena | None = None,
) -> np.ndarray:
    """One §2.1 Boolean product on *packed* operands, packed result.

    ``sp``/``tp`` are ``(n, q, pw)`` packed matrices
    (:func:`pack_bool_matrix`); the result is the freshly-allocated packed
    product.  The pipeline mirrors :func:`semiring_matmul` exchange for
    exchange -- same :class:`CubePlan` destinations, delivery gathers and
    owner vectors (the piece *count* is unchanged, only the trailing width
    shrinks to ``pw`` words), same phase labels, and explicitly-passed
    widths reproducing the unpacked path's constant ``q^2``-word charges --
    so rounds and meters are bit-identical while every shipped/gathered
    buffer is 64x smaller.
    """
    n = clique.n
    plan = cube_plan(n)
    q = plan.q
    q2 = q * q
    pw = packed_words(q2)
    sp = np.ascontiguousarray(np.asarray(sp, dtype=np.int64))
    tp = np.ascontiguousarray(np.asarray(tp, dtype=np.int64))
    if sp.shape != (n, q, pw) or tp.shape != (n, q, pw):
        raise ValueError(
            f"packed operands must be {(n, q, pw)}, got {sp.shape} x {tp.shape}"
        )
    if arena is None:
        arena = ExchangeArena()

    # Step 1: same destination/emission order as the unpacked path; the
    # pieces buffer just carries pw packed words per piece instead of q^2
    # entries.
    pieces = arena.buffer("cube/pieces_packed", (n, 2 * q2, pw))
    pieces[:, :q2].reshape(n, q, q, pw)[:] = sp[:, :, None, :]
    pieces[:, q2:].reshape(n, q, q, pw)[:] = tp[:, None, :, :]

    # The unpacked path's honest per-piece width is q^2 entries x
    # words_for_value(max |entry| in {0, 1}) = q^2 x 1 -- constant for 0/1
    # data -- so the packed path charges that same constant explicitly.
    widths = arena.buffer("cube/widths1_packed", (n, 2 * q2))
    widths[:] = q2
    st_blocks = clique.route_array_take(
        plan.dests1,
        pieces,
        widths=widths,
        take=plan.take_st,
        out=arena.buffer("cube/st_blocks_packed", (2 * n * q2, pw)),
        owners=plan.owners_st,
        phase=f"{phase}/step1-distribute",
        expect_max_load=_LOAD_SLACK * 2 * q2 * q2,
    )

    # Step 2: the delivered blocks are already the Four-Russians operands
    # (left rows packed along the inner dimension, right rows packed along
    # the output columns), so the batched products consume and produce
    # packed words directly -- no per-product pack/unpack.
    s_blocks = st_blocks[: n * q2].reshape(n, q2, pw)
    t_blocks = st_blocks[n * q2 :].reshape(n, q2, pw)
    products = clique.executor.boolean_packed_products(s_blocks, t_blocks, q2)

    # Step 3: product rows are q^2-bit pieces again; same constant charge.
    widths3 = arena.buffer("cube/widths3_packed", (n, q2))
    widths3[:] = q2
    flat_recombined = clique.route_array_take(
        plan.dests3,
        products,
        widths=widths3,
        take=plan.take3,
        out=arena.buffer("cube/recomb_packed", (n * q2, pw)),
        owners=plan.owners3,
        phase=f"{phase}/step3-recombine",
        expect_max_load=_LOAD_SLACK * q2 * q2,
    )

    # Step 4: the q-way Boolean reduction over w2 is a word-parallel OR;
    # the reduce allocates fresh output (arena buffers never escape).
    recombined = flat_recombined.reshape(n, q, q, pw)
    return np.bitwise_or.reduce(recombined, axis=1)


def strip_product_with_witness(
    dist_to_hubs: np.ndarray,
    hub_closure: np.ndarray,
    dist_from_hubs: np.ndarray,
    semiring: Semiring = MIN_PLUS,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Dirty-strip re-squaring kernel: ``(n,s) . (s,s) . (s,n)`` with witnesses.

    The strip-restricted product behind incremental closure maintenance
    (:func:`repro.serve.delta.apply_edge_updates`): for a dirty hub set
    ``D`` of size ``s``, the candidate improvements are

        ``C[a, b] = min over x, y in D of
        dist_to_hubs[a, x] + hub_closure[x, y] + dist_from_hubs[y, b]``

    computed as two rectangular selection-kernel calls (the witness kernels
    already handle ``(m, k) x (k, n)`` operands).  Returns ``(C, wx, wy)``
    where ``wy[a, b]`` is the exit-hub index attaining ``C[a, b]`` and
    ``wx[a, j]`` the entry-hub index attaining the left factor
    ``L[a, j] = min_x dist_to_hubs[a, x] + hub_closure[x, j]`` -- so the
    attaining pair for ``(a, b)`` is ``(wx[a, wy[a, b]], wy[a, b])``.

    Purely local compute: after the dirty hub closure and the ``s`` dirty
    distance rows have been broadcast, row ``a`` of both factors lives at
    node ``a``, so no exchange (and no round charge) happens here -- the
    delta layer bills the broadcasts.
    """
    if not semiring.has_witnesses:
        raise ValueError(f"semiring {semiring.name!r} has no witnesses")
    left, wx = semiring.matmul_with_witness(dist_to_hubs, hub_closure)
    cand, wy = semiring.matmul_with_witness(left, dist_from_hubs)
    return cand, wx, wy


__all__ = [
    "semiring_matmul",
    "CubePlan",
    "cube_plan",
    "boolean_matmul_packed",
    "pack_bool_matrix",
    "unpack_bool_matrix",
    "strip_product_with_witness",
]
