"""The per-stripe coded exchange, kept as the oracle for the per-piece one.

:class:`~repro.faults.CodedClique` bills, prices and corrupts an encoded
exchange once per piece: a piece's ``m`` stripes share its source,
destination and width, so one entry carrying all ``m`` stripes' words gives
the same node loads, and the adversary's hits follow from the relay formula
``(base_i + j) mod n``.  The first implementation did all three once per
stripe.  It lives on here unchanged, so the suite can assert that the
per-piece path charges the same phases, prices the same completions and
corrupts the same stripes:

* :func:`corrupt_pieces` -- hits read off the full ``(P, copies)``
  :func:`~repro.clique.scheduling.disjoint_relays` matrix;
* :class:`PerStripeCodedClique` -- the encoded batch billed as an
  ``np.repeat``-ed :class:`~repro.clique.routing.ArrayBatch` of stripes
  through ``_batch_charge``, and corrupted through
  :func:`corrupt_pieces` (the retry loop is repeated here to call it);
* :class:`PerStripeFaultyClique` -- the unprotected wrapper corrupting
  through :func:`corrupt_pieces`.

Encoding and decoding are shared with ``src/``.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.clique.accounting import PhaseCost, PhaseTraffic
from repro.clique.routing import ArrayBatch
from repro.clique.scheduling import disjoint_relays
from repro.errors import FaultToleranceExceeded
from repro.faults import CodedClique, FaultyClique
from repro.faults.coding import (
    StripePlan,
    decode_stripes,
    encode_stripes,
    stripe_plan,
)
from repro.faults.injection import flip_masks
from repro.faults.plan import FaultKind, FaultPlan


def corrupt_pieces(
    plan: FaultPlan,
    exchange_id: int,
    n: int,
    blocks: np.ndarray,
    *,
    copies: int = 1,
    skip: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One exchange's corruption, hits read off the relay matrix."""
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
    relays = disjoint_relays(total // copies, copies, n, salt=exchange_id).reshape(-1)
    is_corrupt = np.zeros(n, dtype=bool)
    is_corrupt[corrupt] = True
    hit = is_corrupt[relays]
    if skip is not None:
        hit &= ~np.asarray(skip, dtype=bool)
    if not hit.any():
        return blocks, hit, no_drop
    tampered = blocks.copy()
    if plan.kind in (FaultKind.FLIP, FaultKind.BYZANTINE):
        masks = flip_masks(relays[hit]).reshape((-1,) + (1,) * (blocks.ndim - 1))
        tampered[hit] = (tampered[hit].view(np.uint64) ^ masks.view(np.uint64)).view(
            np.int64
        )
        dropped = no_drop
    else:  # DROP / CRASH: the piece is lost -- a known erasure.
        tampered[hit] = 0
        dropped = hit.copy()
    return tampered, hit, dropped


class PerStripeFaultyClique(FaultyClique):
    """The unprotected wrapper, corrupting through the relay-matrix oracle."""

    def _corrupt(
        self, pieces: np.ndarray, skip: np.ndarray | None = None
    ) -> np.ndarray:
        if self.plan is None or self.plan.t == 0:
            return pieces
        tampered, hit, _dropped = corrupt_pieces(
            self.plan, self._next_exchange(), self.n, pieces, skip=skip
        )
        self.faults_injected += int(hit.sum())
        return tampered


class PerStripeCodedClique(CodedClique):
    """The coded collectives, billed and corrupted once per stripe."""

    def _encode(
        self, blocks: np.ndarray, widths: np.ndarray
    ) -> tuple[StripePlan, np.ndarray, np.ndarray]:
        p = blocks.shape[0]
        width = int(np.prod(blocks.shape[1:], dtype=np.int64))
        plan = stripe_plan(width, self.n, self.tolerance)
        stripes = encode_stripes(blocks.reshape(p, width), plan)
        stripe_widths = np.repeat(
            -(-np.asarray(widths, dtype=np.int64) // plan.k), plan.m
        )
        return plan, stripes, stripe_widths

    def _run_encoded(
        self,
        pieces: np.ndarray,
        plan: StripePlan,
        stripes: np.ndarray,
        skip: np.ndarray | None,
        abstract_cost: PhaseCost,
        ship_costs: Callable[[int], list[tuple[PhaseCost, "PhaseTraffic | None"]]],
    ) -> np.ndarray:
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

    def _deliver_batch(self, batch, cost, traffic):
        plan, stripes, stripe_widths = self._encode(batch.blocks, batch.widths)
        enc_batch = ArrayBatch(
            n=batch.n,
            src=np.repeat(batch.src, plan.m),
            dst=np.repeat(batch.dst, plan.m),
            widths=stripe_widths,
            blocks=stripes,
            tags=None,
        )
        enc_cost, enc_traffic = self._batch_charge(
            enc_batch, "route", f"{cost.phase}/encoded", None
        )
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
        n = self.n
        p = pieces.shape[0]
        abstract_cost = self._broadcast_cost(self._node_widths(owners, widths), phase)
        plan, stripes, stripe_widths = self._encode(pieces, widths)
        stripe_owners = np.repeat(owners, plan.m)

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
