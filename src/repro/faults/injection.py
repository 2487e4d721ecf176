"""Fault injection over the array collectives.

:func:`corrupt_pieces` applies a :class:`~repro.faults.plan.FaultPlan` to
the in-transit pieces of one exchange; :class:`FaultyClique` applies it in
the two delivery seams of :class:`~repro.clique.model.CongestedClique`
(``_deliver_batch`` and ``_deliver_broadcast``), which every exchange
passes through.  The wrapper corrupts only after the base seam has
charged, so rounds and words are those of the base model, and with no
plan installed (or ``t = 0``) so are the delivered contents -- the
equivalence the fault suite pins.

Relay attribution: piece ``i``'s copy ``j`` transits the intermediate node
``disjoint_relays(...)[i, j] = (base_i + j) mod n`` -- the same public,
input-oblivious assignment the coded collectives stripe over, so the
adversary model and the decoder's distance argument talk about the same
relays.  (For plain, un-encoded exchanges ``copies = 1``: every piece has a
single relay, and a corrupt relay silently corrupts it -- that is exactly
the vulnerability the coded layer exists to close.)
"""

from __future__ import annotations

import numpy as np

from repro.clique.model import CongestedClique
from repro.clique.scheduling import disjoint_relays
from repro.faults.plan import FaultKind, FaultPlan

#: Odd 64-bit multiplier (splitmix64's golden-ratio constant).  Flip masks
#: are ``(relay + 1) * _FLIP_MULT`` in uint64: odd multipliers are units mod
#: ``2**64``, so masks are nonzero and pairwise distinct across relays --
#: a flipped word never equals the truth, and two corrupt relays never
#: produce the same wrong word.  The majority decoder's "no silent wrong
#: answers" guarantee rests on exactly these two properties.
_FLIP_MULT = np.uint64(0x9E3779B97F4A7C15)


def flip_masks(relays: np.ndarray) -> np.ndarray:
    """The per-relay corruption masks, as int64 (same bits as the uint64)."""
    return ((np.asarray(relays).astype(np.uint64) + np.uint64(1)) * _FLIP_MULT).view(
        np.int64
    )


def corrupt_pieces(
    plan: FaultPlan,
    exchange_id: int,
    n: int,
    blocks: np.ndarray,
    *,
    copies: int = 1,
    skip: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Apply one exchange's worth of corruption to in-transit pieces.

    The hits come from the relay formula, not a relay matrix: copy ``j`` of
    piece ``i`` transits ``(base_i + j) mod n`` with ``base`` the
    ``copies = 1`` assignment, so corrupt node ``c`` carries copy
    ``(c - base_i) mod n`` of piece ``i`` exactly when that index is below
    ``copies``.  Since ``copies <= n``, two corrupt nodes never hit the same
    copy, and finding the hits takes one pass per corrupt node over the
    pieces.  A hit row is flipped with its relay's mask
    (:func:`flip_masks`) or zeroed as a known erasure.

    Args:
        plan: the adversary.
        exchange_id: monotone per-clique exchange counter (salts the relay
            assignment and, for FLIP/DROP, the corrupt-set redraw).
        n: clique size.
        blocks: ``(P, *piece_shape)`` int64 stack of in-transit pieces; for
            coded exchanges stripe ``j`` of piece ``i`` sits at row
            ``i * copies + j`` (``P`` must be a multiple of ``copies``).
        copies: encoded pieces per piece (stripes per piece when coded).
        skip: optional ``(P,)`` bool -- pieces that never leave their node
            (self-addressed) and therefore cannot be corrupted in transit.

    Returns:
        ``(tampered, hit, dropped)``: the (possibly shared, see below)
        piece stack, the ``(P,)`` bool mask of corrupted pieces, and the
        ``(P,)`` bool mask of known erasures (DROP/CRASH hits).  When no
        piece is hit the *input* ``blocks`` is returned unchanged and
        uncopied; when any piece is hit, ``tampered`` is a fresh copy --
        caller-owned and arena memory is never mutated in place.
    """
    total = blocks.shape[0]
    if copies < 1 or total % copies:
        raise ValueError(
            f"piece count {total} is not a multiple of the {copies} "
            f"encoded pieces per piece"
        )
    no_drop = np.zeros(total, dtype=bool)
    corrupt = plan.corrupt_nodes(n, exchange_id)
    if corrupt.size == 0 or total == 0:
        return blocks, no_drop, no_drop
    if copies > n:
        raise ValueError(
            f"need 1 <= copies <= n = {n} pairwise-distinct relays per "
            f"piece, got copies = {copies}"
        )
    base = disjoint_relays(total // copies, 1, n, salt=exchange_id)[:, 0]
    carried = (corrupt[:, None] - base) % n
    which, piece = np.nonzero(carried < copies)
    rows = piece * copies + carried[which, piece]
    relays = corrupt[which]
    if skip is not None:
        moved = ~np.asarray(skip, dtype=bool)[rows]
        rows, relays = rows[moved], relays[moved]
    hit = np.zeros(total, dtype=bool)
    hit[rows] = True
    if not rows.size:
        return blocks, hit, no_drop
    tampered = blocks.copy()
    if plan.kind in (FaultKind.FLIP, FaultKind.BYZANTINE):
        masks = flip_masks(relays).reshape((-1,) + (1,) * (blocks.ndim - 1))
        tampered[rows] = (tampered[rows].view(np.uint64) ^ masks.view(np.uint64)).view(
            np.int64
        )
        dropped = no_drop
    else:  # DROP / CRASH: the piece is lost -- a known erasure.
        tampered[rows] = 0
        dropped = hit.copy()
    return tampered, hit, dropped


class FaultyClique(CongestedClique):
    """A congested clique whose array-collective deliveries may be corrupted.

    Overrides only the two delivery seams, corrupting what they deliver
    after the base model has charged: round counts, and (when ``plan`` is
    None or ``t = 0``) delivered contents, are bit-identical to
    :class:`~repro.clique.model.CongestedClique`.  This is
    the *unprotected* wrapper -- corruption flows straight into the
    computation, demonstrating the silent-wrong-answer failure mode the
    coded layer (:class:`~repro.faults.protocol.CodedClique`) closes.

    Broadcast interception is a deliberate coarsening: the simulator shares
    one replica across receivers, so a corrupted broadcast piece is seen
    corrupted by *all* receivers (as if the sender's uplink were hit),
    rather than per-receiver.

    Attributes:
        plan: the installed :class:`~repro.faults.plan.FaultPlan`, or None.
        faults_injected: total pieces corrupted so far (diagnostics).
    """

    def __init__(
        self, n: int, *, plan: FaultPlan | None = None, **kwargs
    ) -> None:
        super().__init__(n, **kwargs)
        self.plan = plan
        self._exchange_index = 0
        self.faults_injected = 0

    def _next_exchange(self) -> int:
        """Draw the next monotone exchange id (salts relays + corrupt sets)."""
        index = self._exchange_index
        self._exchange_index += 1
        return index

    def _corrupt(
        self, pieces: np.ndarray, skip: np.ndarray | None = None
    ) -> np.ndarray:
        """``pieces`` after one exchange's worth of the plan's corruption."""
        if self.plan is None or self.plan.t == 0:
            return pieces
        tampered, hit, _dropped = corrupt_pieces(
            self.plan, self._next_exchange(), self.n, pieces, skip=skip
        )
        self.faults_injected += int(hit.sum())
        return tampered

    def _deliver_batch(self, batch, cost, traffic):
        blocks = super()._deliver_batch(batch, cost, traffic)
        return self._corrupt(blocks, skip=batch.dst == batch.src)

    def _deliver_broadcast(self, pieces, owners, widths, phase):
        return self._corrupt(
            super()._deliver_broadcast(pieces, owners, widths, phase)
        )


__all__ = ["FaultyClique", "corrupt_pieces", "flip_masks"]
