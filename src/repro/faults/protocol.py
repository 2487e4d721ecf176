"""Reed-Solomon coded collectives: detect, retry, degrade.

:class:`CodedClique` ships every exchange of
:class:`~repro.clique.model.CongestedClique` -- it overrides the model's two
delivery seams, ``_deliver_batch`` and ``_deliver_broadcast`` -- over
systematic Reed-Solomon striping in GF(2^16) (:mod:`repro.faults.coding`):
each piece is cut into
``k`` data stripes plus ``2T`` parity stripes, and the ``m = k + 2T``
stripes travel through pairwise-distinct relays
(:func:`repro.clique.scheduling.disjoint_relays`), so the round overhead
tends to ``n / (n - 2T)``.  The protocol per exchange:

1. **encode/ship**: every piece is striped and each stripe travels through
   its own relay node; the redundancy is charged *honestly* -- the actual
   meter bills the encoded exchange (and, for broadcasts, the relay
   fan-out leg), not the abstract one.
2. **detect**: the decoder either certifies the exact original words
   (Reed-Solomon syndrome recheck) or flags the piece -- no wrong value
   can ever be certified (see :mod:`repro.faults.coding`).
3. **retry**: a flagged piece re-ships the exchange through a fresh relay
   assignment (the exchange counter salts ``disjoint_relays``), up to
   ``max_retries`` times, each retry billed.
4. **degrade**: past the budget the exchange raises
   :class:`~repro.errors.FaultToleranceExceeded`.  The invariant is *no
   silent wrong answers, ever*: a coded closure either equals the
   fault-free oracle edge-for-edge or raises.

Two meters keep the bills apart.  ``clique.meter`` (observer #0 of the
meter stack) bills what the coded run actually spends: the encoded
exchanges go through the stack, so transport cost models observe what
actually hits the wire.  ``clique.abstract_meter`` is a plain
:class:`~repro.clique.accounting.CostMeter` off the stack, charged by hand
with each exchange's fault-free bill, so it stays phase-for-phase
identical to the oracle's meter (the overhead factor is the ratio of the
two round totals).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable

import numpy as np

from repro.clique.accounting import CostMeter, PhaseCost, PhaseTraffic
from repro.clique.routing import ArrayBatch
from repro.clique.scheduling import disjoint_relays
from repro.errors import CliqueModelError, FaultToleranceExceeded
from repro.faults.coding import (
    StripePlan,
    decode_stripes,
    encode_stripes,
    stripe_plan,
)
from repro.faults.injection import FaultyClique, corrupt_pieces
from repro.faults.plan import FaultPlan


class CodedClique(FaultyClique):
    """Reed-Solomon coded collectives: ``k`` data + ``2T`` parity stripes.

    Every piece is striped column-wise over GF(2^16)
    (:func:`repro.faults.coding.encode_stripes`) across ``m = k + 2T <= n``
    distinct relays, so ``T`` corrupt relays touch at most ``T`` stripes:
    flips are located and corrected (with a full syndrome recheck as the
    certification step), drops/crashes are known erasures recovered
    directly, and anything the decoder cannot certify flags the piece for
    the retry/degrade loop.  Overhead ``m * ceil(w/k) / w``, which
    approaches ``n / (n - 2T)`` for pieces of at least ``n - 2T`` words --
    the rate the LDC-compiler line of work (arXiv:2508.08740) argues is
    the right price for robustness.

    Args:
        n: clique size; needs ``n >= 2T + 1`` (one data stripe plus ``2T``
            parity stripes on pairwise-distinct relays).
        plan: the adversary (:class:`~repro.faults.plan.FaultPlan`), or None
            to run the coded protocol fault-free (redundancy still billed).
        tolerance: ``T`` -- the per-exchange corruption budget the code must
            survive.
        max_retries: re-ship attempts after a detected inconsistency before
            degrading to :class:`~repro.errors.FaultToleranceExceeded`.

    Attributes:
        abstract_meter: the fault-free bill (equals the oracle's meter).
        meter: the actual bill, redundancy and retries included.
        retries: re-shipped exchanges so far.
        decode_failures: exchanges that degraded (raised) so far.
    """

    def __init__(
        self,
        n: int,
        *,
        plan: FaultPlan | None = None,
        tolerance: int = 1,
        max_retries: int = 2,
        **kwargs,
    ) -> None:
        super().__init__(n, plan=plan, **kwargs)
        if tolerance < 1:
            raise ValueError(
                f"robust collectives need tolerance >= 1, got {tolerance}"
            )
        if max_retries < 0:
            raise ValueError(f"retry budget must be non-negative, got {max_retries}")
        needed = 2 * tolerance + 1
        if needed > self.n:
            raise CliqueModelError(
                f"RS striping with tolerance {tolerance} needs at least "
                f"2*{tolerance}+1 = {needed} pairwise-distinct relays "
                f"(one data stripe + 2t parity stripes) but the clique has "
                f"only {self.n} nodes"
            )
        self.tolerance = tolerance
        self.max_retries = max_retries
        # Off the meter stack: every exchange is encoded, and each bills
        # its fault-free cost here by hand (see _run_encoded).
        self.abstract_meter = CostMeter()
        self.retries = 0
        self.decode_failures = 0

    # ------------------------------------------------------------------ #
    # Core encode -> corrupt -> decode -> retry loop
    # ------------------------------------------------------------------ #

    def _encode(
        self, blocks: np.ndarray, widths: np.ndarray
    ) -> tuple[StripePlan, np.ndarray, np.ndarray]:
        """Stripe one exchange's ``(P, ...)`` pieces for shipping.

        Returns ``(plan, stripes, stripe_widths)``: stripe ``j`` of piece
        ``i`` sits at row ``i * m + j`` (the layout
        :func:`~repro.faults.injection.corrupt_pieces` attributes relays
        by), and ``stripe_widths`` holds one entry per piece: each of piece
        ``i``'s ``m`` stripes is billed ``stripe_widths[i]`` words, a
        ``k``-th of the piece's declared width, rounded up.
        """
        p = blocks.shape[0]
        width = int(np.prod(blocks.shape[1:], dtype=np.int64))
        plan = stripe_plan(width, self.n, self.tolerance)
        stripes = encode_stripes(blocks.reshape(p, width), plan)
        return plan, stripes, -(-np.asarray(widths, dtype=np.int64) // plan.k)

    def _run_encoded(
        self,
        pieces: np.ndarray,
        plan: StripePlan,
        stripes: np.ndarray,
        skip: np.ndarray | None,
        abstract_cost: PhaseCost,
        ship_costs: Callable[[int], list[tuple[PhaseCost, "PhaseTraffic | None"]]],
    ) -> np.ndarray:
        """Run one coded exchange end to end; return the decoded pieces.

        ``pieces`` is the ``(P, ...)`` fault-free truth, ``stripes`` its
        ``(P * m, S)`` encoding under ``plan``.  ``ship_costs(exchange_id)``
        yields ``(cost, traffic)`` charges of one shipping attempt (relay
        assignment, and hence broadcast balance, depends on the exchange
        id); they go through the meter stack, so the actual meter *and*
        any transport cost model see the encoded exchange, while the
        abstract meter is billed the fault-free cost by hand.
        """
        p = pieces.shape[0]
        self.abstract_meter.charge(abstract_cost)
        for attempt in range(self.max_retries + 1):
            exchange_id = self._next_exchange()
            for cost, traffic in ship_costs(exchange_id):
                self.meters.charge(cost, traffic)
            if self.plan is None or self.plan.t == 0:
                return pieces
            tampered, hit, dropped = corrupt_pieces(
                self.plan,
                exchange_id,
                self.n,
                stripes,
                copies=plan.m,
                skip=skip,
            )
            self.faults_injected += int(hit.sum())
            data, ok = decode_stripes(tampered, dropped, plan)
            if bool(ok.all()):
                return data[:, : plan.width].reshape(pieces.shape)
            if attempt < self.max_retries:
                self.retries += 1
        self.decode_failures += 1
        raise FaultToleranceExceeded(
            f"phase {abstract_cost.phase!r}: {int((~ok).sum())} of {p} pieces "
            f"failed to pass Reed-Solomon certification ({2 * self.tolerance} "
            f"parity stripes) after "
            f"{self.max_retries + 1} attempts (tolerance {self.tolerance}, "
            f"fault kind {self.plan.kind.value!r}, budget t={self.plan.t})"
        )

    # ------------------------------------------------------------------ #
    # The two delivery seams, coded
    # ------------------------------------------------------------------ #

    def _deliver_batch(self, batch, cost, traffic):
        """Ship one routed or direct batch striped; return the decoded blocks.

        The coded exchange is charged as a *routed* exchange even when
        the abstract one is direct: relaying through distinct intermediates
        is what buys the disjointness the decode needs, so a coded direct
        send is physically a Lenzen-routed exchange.
        """
        plan, stripes, stripe_widths = self._encode(batch.blocks, batch.widths)
        # A piece's m stripes share its source and destination, so one
        # entry carrying all m stripes' words gives the encoded exchange's
        # pair-word matrix, hence its bill and price; only the payload
        # count is per stripe.
        enc_batch = replace(batch, widths=plan.m * stripe_widths)
        enc_cost, enc_traffic = self._batch_charge(
            enc_batch, "route", f"{cost.phase}/encoded", None
        )
        enc_cost = replace(enc_cost, payloads=batch.payloads * plan.m)
        skip = np.repeat(batch.dst == batch.src, plan.m)
        return self._run_encoded(
            batch.blocks,
            plan,
            stripes,
            skip,
            cost,
            lambda _exchange_id: [(enc_cost, enc_traffic)],
        )

    def _deliver_broadcast(self, pieces, owners, widths, phase):
        """Broadcast ``pieces`` striped through relays; return them decoded.

        A plain broadcast has no relays, so a corrupt *sender-side* hit
        would defeat any code (all stripes share the fault).  The coded
        broadcast therefore relays: each piece's stripes are routed to
        their distinct relay nodes (fan-out leg, billed as a routed
        exchange), and each relay broadcasts the stripes it holds (billed
        by the per-relay balance of the assignment).
        """
        n = self.n
        p = pieces.shape[0]
        abstract_cost = self._broadcast_cost(self._node_widths(owners, widths), phase)
        plan, stripes, stripe_widths = self._encode(pieces, widths)
        stripe_owners = np.repeat(owners, plan.m)
        stripe_widths = np.repeat(stripe_widths, plan.m)

        def ship_costs(
            exchange_id: int,
        ) -> list[tuple[PhaseCost, "PhaseTraffic | None"]]:
            relays = disjoint_relays(p, plan.m, n, salt=exchange_id).reshape(-1)
            fan_batch = ArrayBatch(
                n=n,
                src=stripe_owners,
                dst=relays,
                widths=stripe_widths,
                blocks=np.zeros((relays.shape[0], 0), dtype=np.int64),
                tags=None,
            )
            fan_cost, fan_traffic = self._batch_charge(
                fan_batch, "route", f"{phase}/fanout", None
            )
            relay_widths = self._node_widths(relays, stripe_widths)
            bcast_cost = self._broadcast_cost(relay_widths, f"{phase}/encoded")
            bcast_traffic = self._broadcast_traffic(relay_widths)
            return [(fan_cost, fan_traffic), (bcast_cost, bcast_traffic)]

        return self._run_encoded(pieces, plan, stripes, None, abstract_cost, ship_costs)

    # ------------------------------------------------------------------ #
    # Diagnostics
    # ------------------------------------------------------------------ #

    @property
    def overhead_factor(self) -> float:
        """Actual rounds divided by the abstract (fault-free) rounds.

        A fresh session has charged nothing on either meter; the honest
        report for "no redundancy spent yet" is 1.0, not a zero division.
        """
        base = self.abstract_meter.rounds
        if not base:
            return 1.0
        return float(self.meter.rounds) / base

    def redundancy_note(self) -> str:
        """One-line human description of the redundancy (CLI summaries)."""
        return (
            f"RS-coded striping (GF(2^16), {2 * self.tolerance} parity "
            f"stripes per piece)"
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}(n={self.n}, tolerance={self.tolerance}, "
            f"rounds={self.meter.rounds}, "
            f"abstract_rounds={self.abstract_meter.rounds})"
        )


__all__ = ["CodedClique"]
