"""Load analysis and delivery for array exchanges on the congested clique.

Separates the *accounting* of a communication phase (how many rounds a legal
schedule needs) from the *data movement* (which the simulator performs
directly).  Used by :class:`repro.clique.model.CongestedClique`.

An exchange is a *batch*: per node, a vector of destination ids plus a
stacked block of equally-shaped int64 pieces.  Load accounting and delivery
are single vectorised passes (``np.add.at`` / stable argsort) over the
concatenated batch, so the Python-level cost is paid per exchange, not per
piece.

Exchanges whose destination pattern is *static* can go one step further and
skip the per-exchange argsort and the fresh delivery arrays entirely:
:meth:`repro.clique.model.CongestedClique.route_array_take` charges through
the same accounting below but delivers by a precomputed gather into a
caller-owned (arena) buffer -- what the engine plans
(``CubePlan.take_st``/``take3``) use on every squaring.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.clique.scheduling import Demand
from repro.errors import LoadBoundExceededError


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
    demand: Demand

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
    """Raise if the observed max per-node load exceeds an asserted bound.

    Algorithms pass the bound their analysis promises (e.g. the 3D matmul
    asserts ``2 n^{4/3}`` words per node); a violation indicates an
    implementation bug rather than a model violation.
    """
    if expect_max_load is not None and profile.max_load > expect_max_load:
        raise LoadBoundExceededError(
            f"max per-node load {profile.max_load} exceeds the asserted "
            f"bound {expect_max_load}"
        )


@dataclass(frozen=True)
class ArrayInbox:
    """What one node receives from an array-native exchange.

    Attributes:
        sources: ``(p,)`` sender ids, ascending (ties in emission order --
            a deterministic order, so simulations are reproducible).
        blocks: ``(p, *piece_shape)`` stacked received pieces.
        tags: ``(p,)`` caller-defined per-piece metadata ints, or ``None``.
            Tags ride along for free, like message headers (which are never
            charged words).
    """

    sources: np.ndarray
    blocks: np.ndarray
    tags: np.ndarray | None


@dataclass(frozen=True)
class ArrayBatch:
    """A flattened array-native exchange: one row per piece, all senders.

    Built once by :func:`flatten_array_batch` and shared by accounting and
    delivery.  ``src``/``dst``/``widths`` are ``(p,)`` vectors over every
    piece in the exchange; ``blocks`` stacks the pieces themselves.
    """

    n: int
    src: np.ndarray
    dst: np.ndarray
    widths: np.ndarray
    blocks: np.ndarray
    tags: np.ndarray | None

    @property
    def payloads(self) -> int:
        return int(self.src.shape[0])


def _flatten_uniform(
    dests: np.ndarray,
    blocks: np.ndarray,
    widths: np.ndarray,
    tags: np.ndarray | None,
    n: int,
) -> ArrayBatch:
    """Zero-copy flatten for the uniform case: every node sends ``p`` pieces.

    When the caller already holds whole-exchange ``(n, p, ...)`` arrays (the
    matmul engines do -- their exchange shapes are input-independent), the
    batch is a reshape, not a concatenation; contents and accounting are
    identical to the general path.
    """
    p = dests.shape[1]
    if blocks.shape[:2] != (n, p) or widths.shape != (n, p):
        raise ValueError("uniform batch: dests/blocks/widths disagree on shape")
    if tags is not None and tags.shape != (n, p):
        raise ValueError("uniform batch: tags disagree with dests on shape")
    dst = np.ascontiguousarray(dests, dtype=np.int64).reshape(-1)
    width_vec = np.ascontiguousarray(widths, dtype=np.int64).reshape(-1)
    block_mat = np.ascontiguousarray(blocks, dtype=np.int64).reshape(
        (n * p,) + blocks.shape[2:]
    )
    tag_vec = (
        np.ascontiguousarray(tags, dtype=np.int64).reshape(-1)
        if tags is not None
        else None
    )
    src = np.repeat(np.arange(n, dtype=np.int64), p)
    if dst.size:
        if int(dst.min()) < 0 or int(dst.max()) >= n:
            raise ValueError("array batch destination out of range")
        bad = np.nonzero((width_vec <= 0) & (dst != src))[0]
        if bad.size:
            raise ValueError(
                f"node {int(src[bad[0]])}: non-positive word count "
                f"{int(width_vec[bad[0]])} in array batch"
            )
    return ArrayBatch(
        n=n, src=src, dst=dst, widths=width_vec, blocks=block_mat, tags=tag_vec
    )


def flatten_array_batch(
    dests: Sequence[np.ndarray],
    blocks: Sequence[np.ndarray],
    widths: Sequence[np.ndarray],
    tags: Sequence[np.ndarray] | None,
    n: int,
) -> ArrayBatch:
    """Concatenate per-node piece vectors into one exchange-wide batch.

    ``dests[v]``, ``widths[v]`` (and ``tags[v]`` if given) are ``(p_v,)``
    vectors and ``blocks[v]`` is ``(p_v, *piece_shape)``; the piece shape
    must be uniform across the whole exchange.  Raises ``ValueError`` on
    malformed input (the caller wraps into ``CliqueModelError``).

    Callers that already hold whole-exchange ``(n, p, ...)`` arrays may pass
    them directly; that uniform case flattens by reshape with no
    per-node copies.
    """
    if (
        isinstance(dests, np.ndarray)
        and isinstance(blocks, np.ndarray)
        and isinstance(widths, np.ndarray)
        and (tags is None or isinstance(tags, np.ndarray))
        and dests.ndim == 2
        and dests.shape[0] == n
    ):
        return _flatten_uniform(dests, blocks, widths, tags, n)
    if len(dests) != n or len(blocks) != n or len(widths) != n:
        raise ValueError(f"expected {n} per-node batches")
    if tags is not None and len(tags) != n:
        raise ValueError(f"expected {n} per-node tag vectors")
    counts = []
    for v in range(n):
        d = np.asarray(dests[v])
        b = np.asarray(blocks[v])
        w = np.asarray(widths[v])
        if d.ndim != 1 or w.ndim != 1 or b.ndim < 1:
            raise ValueError(f"node {v}: malformed array batch")
        if d.shape[0] != b.shape[0] or d.shape[0] != w.shape[0]:
            raise ValueError(
                f"node {v}: dests/blocks/widths disagree on piece count"
            )
        if tags is not None:
            t = np.asarray(tags[v])
            if t.ndim != 1 or t.shape[0] != d.shape[0]:
                raise ValueError(
                    f"node {v}: tags disagree with dests on piece count"
                )
        counts.append(d.shape[0])
    src = np.repeat(np.arange(n, dtype=np.int64), counts)
    dst = np.concatenate([np.asarray(d, dtype=np.int64) for d in dests])
    width_vec = np.concatenate([np.asarray(w, dtype=np.int64) for w in widths])
    block_mat = np.concatenate([np.asarray(b, dtype=np.int64) for b in blocks])
    tag_vec = (
        np.concatenate([np.asarray(t, dtype=np.int64) for t in tags])
        if tags is not None
        else None
    )
    if dst.size:
        if int(dst.min()) < 0 or int(dst.max()) >= n:
            raise ValueError("array batch destination out of range")
        bad = np.nonzero((width_vec <= 0) & (dst != src))[0]
        if bad.size:
            raise ValueError(
                f"node {int(src[bad[0]])}: non-positive word count "
                f"{int(width_vec[bad[0]])} in array batch"
            )
    return ArrayBatch(
        n=n, src=src, dst=dst, widths=width_vec, blocks=block_mat, tags=tag_vec
    )


def analyze_array(batch: ArrayBatch, *, with_demand: bool = False) -> LoadProfile:
    """Per-node and per-pair loads of an array batch, vectorised.

    Self-addressed pieces are local moves, free in the model: excluded from
    the loads, included in the payload count.  The per-pair ``demand`` map
    is only materialised when ``with_demand`` is set (EXACT scheduling);
    FAST-mode accounting needs only the per-node aggregates.
    """
    n = batch.n
    nonself = batch.src != batch.dst
    src = batch.src[nonself]
    dst = batch.dst[nonself]
    w = batch.widths[nonself]
    send = np.zeros(n, dtype=np.int64)
    recv = np.zeros(n, dtype=np.int64)
    np.add.at(send, src, w)
    np.add.at(recv, dst, w)
    demand: Demand = {}
    if with_demand and src.size:
        pair_keys = src * n + dst
        uniq, inverse = np.unique(pair_keys, return_inverse=True)
        pair_words = np.zeros(uniq.shape[0], dtype=np.int64)
        np.add.at(pair_words, inverse, w)
        demand = {
            (int(key) // n, int(key) % n): int(words)
            for key, words in zip(uniq, pair_words)
        }
    return LoadProfile(
        send_words=send.tolist(),
        recv_words=recv.tolist(),
        total_words=int(w.sum()),
        payloads=batch.payloads,
        demand=demand,
    )


@dataclass(frozen=True)
class FlatInboxes:
    """All inboxes of an array exchange as one destination-sorted batch.

    The flat counterpart of ``list[ArrayInbox]``: node ``u``'s inbox is the
    slice ``offsets[u]:offsets[u+1]`` of every array, in the same
    deterministic (sender id, emission order) order.  Exchanges whose inbox
    composition is uniform (every node receives ``p`` pieces -- true of all
    matmul-engine phases) can reshape ``blocks`` to ``(n, p, ...)`` and skip
    per-node restacking entirely.
    """

    n: int
    sources: np.ndarray
    blocks: np.ndarray
    tags: np.ndarray | None
    offsets: np.ndarray

    def inbox(self, u: int) -> ArrayInbox:
        """Node ``u``'s inbox as a (view-backed) :class:`ArrayInbox`."""
        lo, hi = int(self.offsets[u]), int(self.offsets[u + 1])
        return ArrayInbox(
            sources=self.sources[lo:hi],
            blocks=self.blocks[lo:hi],
            tags=self.tags[lo:hi] if self.tags is not None else None,
        )

    def uniform_blocks(self, pieces_per_node: int) -> np.ndarray:
        """``blocks`` as an ``(n, p, ...)`` array (uniform inboxes only)."""
        if self.blocks.shape[0] != self.n * pieces_per_node:
            raise ValueError(
                f"exchange is not uniform: {self.blocks.shape[0]} pieces != "
                f"{self.n} nodes x {pieces_per_node}"
            )
        return self.blocks.reshape(
            (self.n, pieces_per_node) + self.blocks.shape[1:]
        )


def deliver_array_flat(batch: ArrayBatch) -> FlatInboxes:
    """Vectorised delivery, returned as one :class:`FlatInboxes` batch.

    One stable sort by destination groups the batch; stability preserves
    the (sender id, emission order) order within each inbox.
    """
    order = np.argsort(batch.dst, kind="stable")
    counts = np.bincount(batch.dst, minlength=batch.n)
    return FlatInboxes(
        n=batch.n,
        sources=batch.src[order],
        blocks=batch.blocks[order],
        tags=batch.tags[order] if batch.tags is not None else None,
        offsets=np.concatenate(([0], np.cumsum(counts))),
    )


def deliver_array(batch: ArrayBatch) -> list[ArrayInbox]:
    """Move every piece to its destination inbox, one inbox per node."""
    flat = deliver_array_flat(batch)
    return [flat.inbox(u) for u in range(batch.n)]


__all__ = [
    "LoadProfile",
    "enforce_load_bound",
    "ArrayInbox",
    "ArrayBatch",
    "FlatInboxes",
    "flatten_array_batch",
    "analyze_array",
    "deliver_array",
    "deliver_array_flat",
]
