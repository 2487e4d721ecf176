"""Per-payload ("tuple") reference formulations, kept as test oracles.

The simulator's exchanges all run on the array collectives of
:class:`repro.clique.model.CongestedClique`.  They were ported from
per-payload primitives that move one ``(dst, payload, words)`` Python
tuple at a time; those primitives and the three engine formulations written
against them live on here as references, so the suite can keep asserting
that every array port charges bit-identical :class:`PhaseCost` streams and
delivers the same pieces:

* :class:`TupleClique` wraps a clique and adds the five tuple primitives
  (``broadcast``, ``send``, ``route``, ``transpose``,
  ``allgather_records``) with their bill and delivery rules -- per-node
  loads summed payload by payload (:func:`analyze`, :class:`LoadProfile`)
  -- charging the wrapped clique's meters;
* :func:`bilinear_matmul_tuple`, :func:`validate_candidates_tuple` and
  :func:`walk_check_tuple` are the per-payload formulations of the §2.2
  bilinear engine, the Lemma 21 witness validation hops and the Theorem 4
  walk exchanges.  ``walk_check_tuple`` runs through
  :func:`repro.subgraphs.four_cycle.detect_four_cycles` by swapping out
  ``_walk_check_array``.

The references build no routing metadata for transport observers.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np
from kernel_reference import ring_matmul

from repro.algebra.bilinear import BilinearAlgorithm
from repro.algebra.polynomial import POLYNOMIAL
from repro.algebra.semirings import PLUS_TIMES, Semiring
from repro.clique.accounting import PhaseCost
from repro.clique.model import CongestedClique
from repro.clique.scheduling import broadcast_rounds, relay_rounds
from repro.constants import INF
from repro.errors import CliqueModelError, LoadBoundExceededError
from repro.graphs.graphs import Graph
from repro.matmul.bilinear_clique import _check_operands, phase_load_bounds
from repro.matmul.layout import GridLayout
from repro.subgraphs.four_cycle import _CHUNK, Tile, _chunks

# outboxes[v] = list of (dst, payload, words) messages node v emits.
Outboxes = list[list[tuple[int, Any, int]]]


def _check_payload(node: int, payload: Any) -> None:
    """Reject payloads no fixed-width word encoding exists for.

    Words are integers in this model; a NaN/inf float or an object-dtype
    array has no honest word width, so it must die here with the offending
    node named, not downstream as an opaque numpy cast error.
    """
    if isinstance(payload, float) and not math.isfinite(payload):
        raise ValueError(
            f"node {node}: non-finite payload {payload!r} has no word encoding"
        )
    if isinstance(payload, np.ndarray):
        if payload.dtype == object:
            raise ValueError(
                f"node {node}: object-dtype payload array (ship fixed-width "
                "words, not Python objects)"
            )
        if np.issubdtype(payload.dtype, np.inexact) and not np.isfinite(payload).all():
            raise ValueError(
                f"node {node}: non-finite entries (NaN/inf) in payload array"
            )


def validate_outboxes(
    outboxes: list[list[tuple[int, Any, int]]], n: int, allow_self: bool = False
) -> None:
    """Check the structural validity of a per-node outbox list.

    Each ``outboxes[v]`` is a list of ``(dst, payload, words)`` triples: the
    messages node ``v`` wants delivered.  Raises ``ValueError`` on malformed
    input (the caller wraps into :class:`~repro.errors.CliqueModelError`),
    always naming the offending node.
    """
    if len(outboxes) != n:
        raise ValueError(f"expected {n} outboxes, got {len(outboxes)}")
    for v, box in enumerate(outboxes):
        for item in box:
            if len(item) != 3:
                raise ValueError(f"node {v}: outbox item must be (dst, payload, words)")
            dst, payload, words = item
            if not (0 <= dst < n):
                raise ValueError(f"node {v}: destination {dst} out of range")
            if dst == v and not allow_self:
                raise ValueError(f"node {v}: self-addressed message")
            if words <= 0:
                raise ValueError(f"node {v}: non-positive word count {words}")
            _check_payload(v, payload)


@dataclass(frozen=True)
class LoadProfile:
    """Communication loads induced by one exchange.

    ``send_words[v]`` / ``recv_words[v]`` exclude self-addressed payloads,
    which are local moves and free in the model.
    """

    send_words: list[int]
    recv_words: list[int]
    total_words: int
    payloads: int

    @property
    def max_send(self) -> int:
        return max(self.send_words, default=0)

    @property
    def max_recv(self) -> int:
        return max(self.recv_words, default=0)

    @property
    def max_load(self) -> int:
        return max(self.max_send, self.max_recv)


def enforce_load_bound(profile: LoadProfile, expect_max_load: int | None) -> None:
    """Raise if the observed max per-node load exceeds an asserted bound."""
    if expect_max_load is not None and profile.max_load > expect_max_load:
        raise LoadBoundExceededError(
            f"max per-node load {profile.max_load} exceeds the asserted "
            f"bound {expect_max_load}"
        )


def analyze(outboxes: Outboxes, n: int) -> tuple[LoadProfile, dict]:
    """Per-node loads, and words per ordered pair, of a set of outboxes."""
    send = [0] * n
    recv = [0] * n
    demand: dict[tuple[int, int], int] = defaultdict(int)
    total = 0
    payloads = 0
    for v, box in enumerate(outboxes):
        for dst, _payload, words in box:
            payloads += 1
            if dst == v:
                continue  # local move, free
            send[v] += words
            recv[dst] += words
            demand[(v, dst)] += words
            total += words
    profile = LoadProfile(
        send_words=send, recv_words=recv, total_words=total, payloads=payloads
    )
    return profile, dict(demand)


def deliver(outboxes: Outboxes, n: int) -> list[list[tuple[int, Any]]]:
    """Move every payload to its destination inbox.

    Returns ``inboxes`` with ``inboxes[u]`` a list of ``(src, payload)``
    pairs, ordered by source id and then by emission order -- a deterministic
    order so simulations are reproducible.
    """
    inboxes: list[list[tuple[int, Any]]] = [[] for _ in range(n)]
    for v, box in enumerate(outboxes):
        for dst, payload, _words in box:
            inboxes[dst].append((v, payload))
    for box in inboxes:
        box.sort(key=lambda item: item[0])
    return inboxes


class TupleClique:
    """The five tuple primitives over ``clique``, billed on its meters.

    Exposes the wrapped clique's ``n``, ``word_bits`` and meters, so the
    reference formulations below run unchanged.
    """

    def __init__(self, clique: CongestedClique) -> None:
        self.clique = clique
        self.n = clique.n
        self.word_bits = clique.word_bits
        self.meter = clique.meter
        self.meters = clique.meters

    @property
    def rounds(self) -> int:
        return self.clique.rounds

    def broadcast(
        self,
        payloads: Sequence[Any],
        *,
        words: int | Sequence[int] = 1,
        phase: str = "broadcast",
    ) -> list[list[Any]]:
        """Every node sends its payload object to all other nodes.

        ``words`` is each node's payload width (scalar or per node); the
        phase costs the widest.  Returns ``received`` with
        ``received[u][v] = payloads[v]``; payload objects are shared, not
        copied.
        """
        n = self.n
        if len(payloads) != n:
            raise CliqueModelError(f"expected {n} payloads, got {len(payloads)}")
        widths = [words] * n if isinstance(words, int) else list(words)
        if len(widths) != n:
            raise CliqueModelError("per-node word widths must have length n")
        if any(w < 0 for w in widths):
            raise CliqueModelError("negative broadcast width")
        self.meters.charge(
            PhaseCost(
                phase=phase,
                primitive="broadcast",
                rounds=broadcast_rounds(widths),
                words=sum(w * (n - 1) for w in widths),
                payloads=n,
                max_send_words=max(w * (n - 1) for w in widths),
                max_recv_words=sum(widths) - min(widths),
            ),
        )
        shared = list(payloads)
        return [shared[:] for _ in range(n)]

    def send(
        self,
        outboxes: Outboxes,
        *,
        phase: str = "send",
        expect_max_pair: int | None = None,
    ) -> list[list[tuple[int, Any]]]:
        """Direct exchange: every message travels on its own link.

        Rounds charged: the maximum, over ordered pairs, of the words that
        pair must carry.  Use when per-pair traffic is small (e.g. the
        transpose, or the O(1)-round steps of the 4-cycle algorithm); use
        :meth:`route` when traffic is concentrated and relaying pays off.

        Args:
            outboxes: ``outboxes[v]`` lists ``(dst, payload, words)`` triples.
            expect_max_pair: optional asserted bound on per-pair words; a
                violation raises
                :class:`~repro.errors.LoadBoundExceededError`.
        """
        self._validate(outboxes)
        profile, demand = analyze(outboxes, self.n)
        rounds = max(demand.values(), default=0)
        if expect_max_pair is not None and rounds > expect_max_pair:
            raise LoadBoundExceededError(
                f"per-pair traffic of {rounds} words exceeds the asserted "
                f"bound {expect_max_pair}"
            )
        self.meters.charge(
            PhaseCost(
                phase=phase,
                primitive="send",
                rounds=rounds,
                words=profile.total_words,
                payloads=profile.payloads,
                max_send_words=profile.max_send,
                max_recv_words=profile.max_recv,
            ),
        )
        return deliver(outboxes, self.n)

    def route(
        self,
        outboxes: Outboxes,
        *,
        phase: str = "route",
        expect_max_load: int | None = None,
    ) -> list[list[tuple[int, Any]]]:
        """Lenzen-routed exchange (the paper's workhorse primitive).

        Rounds charged: ``2 * ceil(L / n)`` where ``L`` is the maximum
        per-node send or receive load in words.

        Args:
            outboxes: ``outboxes[v]`` lists ``(dst, payload, words)`` triples.
            expect_max_load: optional asserted per-node load bound from the
                calling algorithm's analysis.
        """
        self._validate(outboxes)
        profile, _demand = analyze(outboxes, self.n)
        enforce_load_bound(profile, expect_max_load)
        self.meters.charge(
            PhaseCost(
                phase=phase,
                primitive="route",
                rounds=relay_rounds(profile.max_load, self.n),
                words=profile.total_words,
                payloads=profile.payloads,
                max_send_words=profile.max_send,
                max_recv_words=profile.max_recv,
            ),
        )
        return deliver(outboxes, self.n)

    def transpose(
        self,
        row_values: Sequence[Sequence[Any]],
        *,
        words_per_entry: int = 1,
        phase: str = "transpose",
    ) -> list[list[Any]]:
        """Matrix transpose: node ``v`` sends ``row_values[v][u]`` to node ``u``.

        Costs ``words_per_entry`` rounds (each ordered pair carries exactly
        one entry).  Returns ``columns`` with ``columns[u][v] =
        row_values[v][u]``.
        """
        n = self.n
        if len(row_values) != n or any(len(r) != n for r in row_values):
            raise CliqueModelError("transpose expects an n x n value grid")
        outboxes: Outboxes = [
            [(u, row_values[v][u], words_per_entry) for u in range(n)]
            for v in range(n)
        ]
        inboxes = self.send(outboxes, phase=phase)
        columns: list[list[Any]] = []
        for u in range(n):
            col = [None] * n
            for src, payload in inboxes[u]:
                col[src] = payload
            columns.append(col)
        return columns

    def allgather_records(
        self,
        records_per_node: Sequence[Sequence[Any]],
        *,
        words_per_record: int = 1,
        phase: str = "allgather",
    ) -> list[Any]:
        """Replicate all records to every node in ``O(R / n)`` rounds.

        This is the "collect full information about the graph structure"
        primitive of Dolev et al. [24] used by the girth algorithm: first the
        per-node record counts are broadcast (so everyone can compute the
        balanced placement), then records are routed to evenly loaded holders
        (round-robin by global index), and finally each holder broadcasts its
        ``<= ceil(R / n)`` records.

        Returns the canonical combined record list (every node's copy is
        identical; a single shared list is returned to avoid ``n``-fold
        memory blow-up in the simulator).
        """
        n = self.n
        if len(records_per_node) != n:
            raise CliqueModelError(f"expected {n} record lists")
        counts = [len(r) for r in records_per_node]
        self.broadcast(counts, words=1, phase=f"{phase}/counts")
        total = sum(counts)
        if total == 0:
            return []
        offsets = [0] * n
        acc = 0
        for v in range(n):
            offsets[v] = acc
            acc += counts[v]
        outboxes: Outboxes = [[] for _ in range(n)]
        for v in range(n):
            for i, record in enumerate(records_per_node[v]):
                holder = (offsets[v] + i) % n
                outboxes[v].append((holder, record, words_per_record))
        inboxes = self.route(outboxes, phase=f"{phase}/balance")
        held: list[list[Any]] = [[rec for _src, rec in inboxes[v]] for v in range(n)]
        # Include records a node kept for itself (self-addressed are delivered
        # too by `deliver`, so `held` is already complete).
        per_holder = math.ceil(total / n)
        widths = [min(len(h), per_holder) * words_per_record for h in held]
        if any(len(h) > per_holder for h in held):
            raise AssertionError("round-robin placement exceeded ceil(R/n)")
        self.broadcast(held, words=widths, phase=f"{phase}/broadcast")
        combined: list[Any] = []
        for h in held:
            combined.extend(h)
        return combined

    def _validate(self, outboxes: Outboxes) -> None:
        try:
            validate_outboxes(outboxes, self.n, allow_self=True)
        except ValueError as exc:
            raise CliqueModelError(str(exc)) from exc


# The §2.2 grid-label arithmetic and per-array word widths.  Only the
# per-payload formulation below needs them: the array engine computes its
# destinations and widths on whole index arrays.


def grid_label(layout: GridLayout, v: int) -> tuple[int, int]:
    """The secondary label ``(x1, x2)`` of node ``v``."""
    return v // layout.q, v % layout.q


def node_of_label(layout: GridLayout, x1: int, x2: int) -> int:
    """Node id carrying label ``(x1, x2)``."""
    return x1 * layout.q + x2


def row_position(layout: GridLayout, r: int) -> tuple[int, int, int]:
    """Decompose padded row ``r`` into ``(block i, cell-row x1, offset t)``."""
    block_rows = layout.c * layout.q
    within = r % block_rows
    return r // block_rows, within // layout.c, within % layout.c


def array_words(ring: Semiring, arr: np.ndarray, word_bits: int) -> int:
    """Total words for shipping ``arr`` over ``ring``.

    A polynomial entry is the whole trailing coefficient axis.
    """
    arr = np.asarray(arr)
    entries = arr.size
    if ring is POLYNOMIAL:
        entries //= arr.shape[-1] if arr.shape[-1] else 1
    if entries == 0:
        return 0
    return entries * ring.entry_words(arr, word_bits)


def bilinear_matmul_tuple(
    clique: CongestedClique,
    s: np.ndarray,
    t: np.ndarray,
    algorithm: BilinearAlgorithm | None = None,
    *,
    ring: Semiring = PLUS_TIMES,
    phase: str = "bilinear",
) -> np.ndarray:
    """The per-payload tuple formulation of :func:`bilinear_matmul`.

    Charges bit-identical rounds to the array engine (equivalence-tested)
    but pays a Python-level cost per payload; kept as the round-accounting
    oracle, like the cube kernels in ``tests/kernel_reference.py``.
    """
    n = clique.n
    algorithm, layout = _check_operands(clique, s, t, algorithm)
    q, d, c, mm = layout.q, layout.d, layout.c, layout.m_padded
    trailing = np.asarray(s).shape[2:]
    word_bits = clique.word_bits

    sp = np.zeros((mm, mm) + trailing, dtype=np.int64)
    tp = np.zeros((mm, mm) + trailing, dtype=np.int64)
    sp[:n, :n] = s
    tp[:n, :n] = t

    cols_of = [layout.indices_of_cell_axis(x2) for x2 in range(q)]

    # -------- Step 1: distribute the entries (2 M words per node). ------ #
    outboxes: list[list[tuple[int, object, int]]] = [[] for _ in range(n)]
    for v in range(n):
        i, x1, tt = row_position(layout, v)
        for x2 in range(q):
            dest = node_of_label(layout, x1, x2)
            s_piece = sp[v, cols_of[x2]]
            t_piece = tp[v, cols_of[x2]]
            width = array_words(ring, s_piece, word_bits) + array_words(
                ring, t_piece, word_bits
            )
            outboxes[v].append((dest, (v, s_piece, t_piece), max(1, width)))
    entry_w = max(
        1, ring.entry_words(sp, word_bits), ring.entry_words(tp, word_bits)
    )
    bounds = phase_load_bounds(
        layout, algorithm.m, entry_words=entry_w, hat_words=1, prod_words=1
    )
    inboxes = clique.route(
        outboxes,
        phase=f"{phase}/step1-distribute",
        expect_max_load=bounds["step1"],
    )

    # Assemble the local cell grid LS/LT[i, j] in (d, d, c, c, ...) layout.
    block_rows = c * q
    local_s: list[np.ndarray] = [None] * n  # type: ignore[list-item]
    local_t: list[np.ndarray] = [None] * n  # type: ignore[list-item]
    for u in range(n):
        ls = np.zeros((d, d, c, c) + trailing, dtype=np.int64)
        lt = np.zeros((d, d, c, c) + trailing, dtype=np.int64)
        for _src, (v, s_piece, t_piece) in inboxes[u]:
            i = v // block_rows
            tt = (v % block_rows) % c
            ls[i, :, tt, :] = s_piece.reshape((d, c) + trailing)
            lt[i, :, tt, :] = t_piece.reshape((d, c) + trailing)
        local_s[u] = ls
        local_t[u] = lt

    # -------- Step 2: encode (equation (1)) -- local. ------------------- #
    enc_a, enc_b = algorithm.encode_matrices()
    m = algorithm.m
    s_hats: list[np.ndarray] = []
    t_hats: list[np.ndarray] = []
    for u in range(n):
        flat_s = local_s[u].reshape((d * d,) + (c, c) + trailing)
        flat_t = local_t[u].reshape((d * d,) + (c, c) + trailing)
        s_hats.append(np.tensordot(enc_a, flat_s, axes=1))
        t_hats.append(np.tensordot(enc_b, flat_t, axes=1))

    # -------- Step 3: distribute the linear combinations. --------------- #
    # Node (x1, x2) sends cell (x1, x2) of S^(w), T^(w) to node w;
    # O(n^{2-2/sigma}) words per node.
    outboxes = [[] for _ in range(n)]
    for u in range(n):
        for w in range(m):
            s_cell = s_hats[u][w]
            t_cell = t_hats[u][w]
            width = array_words(ring, s_cell, word_bits) + array_words(
                ring, t_cell, word_bits
            )
            outboxes[u].append((w, (u, s_cell, t_cell), max(1, width)))
    hat_entry_w = max(
        max(ring.entry_words(sh, word_bits) for sh in s_hats),
        max(ring.entry_words(th, word_bits) for th in t_hats),
    )
    bounds = phase_load_bounds(
        layout, m, entry_words=entry_w, hat_words=hat_entry_w, prod_words=1
    )
    inboxes = clique.route(
        outboxes,
        phase=f"{phase}/step3-scatter-hats",
        expect_max_load=bounds["step3"],
    )

    # -------- Step 4: the m block products -- local at nodes w < m. ----- #
    side = q * c
    p_hat_full: list[np.ndarray | None] = [None] * n
    for w in range(m):
        s_full = np.zeros((side, side) + trailing, dtype=np.int64)
        t_full = np.zeros((side, side) + trailing, dtype=np.int64)
        for _src, (u, s_cell, t_cell) in inboxes[w]:
            x1, x2 = grid_label(layout, u)
            s_full[x1 * c : (x1 + 1) * c, x2 * c : (x2 + 1) * c] = s_cell
            t_full[x1 * c : (x1 + 1) * c, x2 * c : (x2 + 1) * c] = t_cell
        p_hat_full[w] = ring_matmul(ring, s_full, t_full)
    # Ring products may widen the entry representation (the polynomial ring's
    # degree grows under convolution), so downstream buffers use the output
    # trailing shape.
    trailing_out = p_hat_full[0].shape[2:]

    # -------- Step 5: scatter the products back to cell owners. --------- #
    outboxes = [[] for _ in range(n)]
    for w in range(m):
        prod = p_hat_full[w]
        for u in range(n):
            x1, x2 = grid_label(layout, u)
            cell = prod[x1 * c : (x1 + 1) * c, x2 * c : (x2 + 1) * c]
            width = array_words(ring, cell, word_bits)
            outboxes[w].append((u, (w, cell), max(1, width)))
    prod_entry_w = max(
        ring.entry_words(p, word_bits) for p in p_hat_full if p is not None
    )
    bounds = phase_load_bounds(
        layout, m, entry_words=entry_w, hat_words=hat_entry_w,
        prod_words=prod_entry_w,
    )
    inboxes = clique.route(
        outboxes,
        phase=f"{phase}/step5-scatter-products",
        expect_max_load=bounds["step5"],
    )

    # -------- Step 6: decode (equation (2)) -- local. ------------------- #
    dec = algorithm.decode_matrix()  # (d*d, m)
    p_cells: list[np.ndarray] = [None] * n  # type: ignore[list-item]
    for u in range(n):
        stack = np.zeros((m, c, c) + trailing_out, dtype=np.int64)
        for _src, (w, cell) in inboxes[u]:
            stack[w] = cell
        cells = np.tensordot(dec, stack, axes=1)
        p_cells[u] = cells.reshape((d, d, c, c) + trailing_out)

    # -------- Step 7: re-assemble rows at their owners. ------------------ #
    bounds = phase_load_bounds(
        layout, m, entry_words=entry_w, hat_words=hat_entry_w,
        prod_words=prod_entry_w,
        out_words=max(ring.entry_words(pc, word_bits) for pc in p_cells),
    )
    outboxes = [[] for _ in range(n)]
    for u in range(n):
        x1, x2 = grid_label(layout, u)
        for i in range(d):
            for tt in range(c):
                r = i * block_rows + x1 * c + tt
                if r >= n:
                    continue
                piece = p_cells[u][i, :, tt, :]
                width = array_words(ring, piece, word_bits)
                outboxes[u].append((r, (x2, piece), max(1, width)))
    inboxes = clique.route(
        outboxes,
        phase=f"{phase}/step7-assemble",
        expect_max_load=bounds["step7"],
    )

    p = np.zeros((n, n) + trailing_out, dtype=np.int64)
    for v in range(n):
        row = np.zeros((mm,) + trailing_out, dtype=np.int64)
        for _src, (x2, piece) in inboxes[v]:
            row[cols_of[x2]] = piece.reshape((d * c,) + trailing_out)
        p[v] = row[:n]
    return p


def validate_candidates_tuple(
    clique: CongestedClique,
    s: np.ndarray,
    t: np.ndarray,
    p: np.ndarray,
    candidates: np.ndarray,
    needed: np.ndarray,
    phase: str,
) -> np.ndarray:
    """The per-payload tuple formulation of candidate validation.

    Charges bit-identical rounds to ``_validate_candidates`` for the
    same instance (equivalence-tested); kept as the round-accounting oracle.
    """
    n = clique.n
    requests: list[list[tuple[int, object, int]]] = [[] for _ in range(n)]
    for u in range(n):
        cols = np.nonzero(needed[u])[0]
        for v in cols:
            w = int(candidates[u, v])
            if 0 <= w < n:
                requests[u].append((w, (u, int(v)), 1))
    inboxes = clique.route(requests, phase=f"{phase}/requests")
    responses: list[list[tuple[int, object, int]]] = [[] for _ in range(n)]
    for w in range(n):
        for _src, (u, v) in inboxes[w]:
            responses[w].append((u, (v, int(t[w, v])), 1))
    inboxes = clique.route(responses, phase=f"{phase}/responses")
    ok = np.zeros_like(needed)
    for u in range(n):
        for w_node, (v, t_wv) in inboxes[u]:
            w = int(candidates[u, v])
            assert w == w_node
            if t_wv < INF and s[u, w] < INF and s[u, w] + t_wv == p[u, v]:
                ok[u, v] = True
    return ok


def walk_check_tuple(
    clique: CongestedClique,
    graph: Graph,
    tiles: list[Tile],
    tile_of: dict[int, Tile],
) -> list[bool]:
    """The per-payload tuple formulation of the 4-cycle walk phases.

    Charges bit-identical rounds to ``_walk_check_array``
    (equivalence-tested); kept as the round-accounting oracle.
    """
    cn = clique.n

    # Step A: y ships NA(y, a) to each a in A(y).
    outboxes: list[list[tuple[int, object, int]]] = [[] for _ in range(cn)]
    for tile in tiles:
        y = tile.y
        neigh = graph.neighbors(y)
        na = _chunks(neigh, tile.side)
        for a_node, chunk in zip(tile.rows, na):
            outboxes[y].append((a_node, (y, chunk), max(1, len(chunk))))
    inboxes = clique.send(outboxes, phase="c4/stepA", expect_max_pair=_CHUNK)

    # Step B: a forwards NA(y, a) to every b in B(y).  Tile disjointness
    # guarantees <= one (y, chunk) per ordered pair (a, b).
    outboxes = [[] for _ in range(cn)]
    for a_node in range(cn):
        for _src, (y, chunk) in inboxes[a_node]:
            tile = tile_of[y]
            for b_node in tile.cols:
                outboxes[a_node].append((b_node, (y, chunk), max(1, len(chunk) + 1)))
    inboxes = clique.send(outboxes, phase="c4/stepB", expect_max_pair=_CHUNK + 1)

    # Node b reassembles N(y) per tile column and forms its walk bundle
    # W(b) = union over y of N(y) x {y} x NB(y, b).
    walks_by_b: list[list[tuple[int, int, int]]] = [[] for _ in range(cn)]
    for b_node in range(cn):
        per_y: dict[int, list[np.ndarray]] = {}
        for _src, (y, chunk) in inboxes[b_node]:
            per_y.setdefault(y, []).append(chunk)
        for y, pieces in per_y.items():
            neigh = np.concatenate([p for p in pieces if len(p)]) if pieces else []
            tile = tile_of[y]
            nb = _chunks(np.asarray(neigh, dtype=np.int64), tile.side)
            b_index = b_node - tile.col_start
            z_part = nb[b_index]
            for x in neigh:
                for z in z_part:
                    walks_by_b[b_node].append((int(x), y, int(z)))

    # Route every 2-walk (x, y, z) to its left endpoint x; per Lemma 13 the
    # send load is O(n) and (post-pigeonhole) the receive load is < 2n.
    outboxes = [
        [(x, (y, z), 1) for (x, y, z) in walks_by_b[b]] for b in range(cn)
    ]
    inboxes = clique.route(
        outboxes, phase="c4/gather-walks", expect_max_load=64 * cn
    )
    found = []
    for x in range(cn):
        endpoints: set[int] = set()
        hit = False
        for _src, (y, z) in inboxes[x]:
            if z == x:
                continue
            if z in endpoints:
                hit = True
                break
            endpoints.add(z)
        found.append(hit)
    return found
