"""The congested clique simulator.

``CongestedClique`` provides the communication primitives the paper's
algorithms are written against, with every primitive metering its cost in
synchronous rounds under the model's bandwidth constraint (one ``O(log n)``
bit word per ordered node pair per round).  The paper's algorithms, and the
Dolev et al. baselines, move data only by broadcasts, direct sends and
Lenzen-routed exchanges [46]; those are:

* :meth:`CongestedClique.broadcast` -- every node sends the same object
  payload to all others; ``w`` words cost ``max(w)`` rounds.  Its
  fixed-width integer twin is :meth:`CongestedClique.broadcast_rows`.
* :meth:`CongestedClique.route_array` -- Lenzen-routed exchange of int64
  pieces; costs ``2 * ceil(L / n)`` rounds for maximum per-node load ``L``.
  In ``ScheduleMode.EXACT`` the full relay schedule is materialised and
  validated; in ``ScheduleMode.FAST`` the closed form is charged.  Its
  planned-delivery variant :meth:`CongestedClique.route_array_take`
  gathers inboxes by a precomputed index vector into a caller-owned buffer
  (what the arena-backed engine sessions use), and the block all-to-alls
  :meth:`CongestedClique.scatter_blocks` /
  :meth:`CongestedClique.gather_blocks` are routed exchanges with a dense
  destination pattern.
* :meth:`CongestedClique.send_array` -- direct point-to-point exchange;
  costs the maximum per-pair word count.
* :meth:`CongestedClique.transpose_array` -- the classic one-round
  transpose: node ``v`` sends entry ``u`` of its row to node ``u``.
* :meth:`CongestedClique.allgather_rows` -- the "learn everything"
  primitive of Dolev et al. [24]: replicate ``R`` fixed-width records to
  all nodes in ``O(R / n)`` rounds.

Every exchange but :meth:`~CongestedClique.broadcast` moves whole ``int64``
arrays with vectorised load accounting.  Words are integers in this model,
so a non-empty piece, destination, width or tag array whose dtype does not
cast safely to ``int64`` (floats, NaN, objects) is refused with
:class:`~repro.errors.CliqueModelError` instead of being floored or
wrapped on the way in.

Algorithms written on top keep **node-local state in per-node containers**
(lists indexed by node id) and only exchange data through these primitives;
that discipline is what makes the simulated round counts meaningful.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import Any, Sequence

import numpy as np

from repro.clique.accounting import (
    CostMeter,
    CostObserver,
    MeterStack,
    PhaseCost,
    PhaseTraffic,
)
from repro.clique.executor import SERIAL_EXECUTOR, LocalExecutor
from repro.clique.messages import block_widths, default_word_bits
from repro.clique.routing import (
    ArrayInbox,
    FlatInboxes,
    analyze_array,
    deliver_array,
    deliver_array_flat,
    enforce_load_bound,
    flatten_array_batch,
)
from repro.clique.scheduling import (
    broadcast_rounds,
    direct_rounds,
    relay_rounds_fast,
    relay_schedule,
)
from repro.errors import CliqueModelError, LoadBoundExceededError


class ScheduleMode(Enum):
    """How routed exchanges are scheduled.

    FAST charges the analytic ``2 * ceil(L / n)`` rounds; EXACT materialises
    the Koenig-coloured relay schedule, validates it against the model, and
    charges its emergent length.  EXACT exists to certify FAST (see the
    scheduling tests); it is slower and meant for small instances.
    """

    FAST = "fast"
    EXACT = "exact"


def _refuse_non_integer(arrays, what: str) -> None:
    """Raise unless every non-empty per-node array casts safely to ``int64``.

    ``arrays`` is a per-node sequence, or one array whose leading axis is
    the node id.  A float, NaN or object entry has no honest word encoding,
    and the later ``int64`` cast would floor or wrap it silently, so the
    error names the first offending node and its dtype.  Empty arrays carry
    no words and pass whatever their dtype.
    """
    if isinstance(arrays, np.ndarray):
        dtypes = {arrays.dtype} if arrays.size else set()
    else:
        dtypes = {np.asarray(arr).dtype for arr in arrays}
    if all(np.can_cast(dtype, np.int64, "safe") for dtype in dtypes):
        return
    # Some dtype is unsafe: name the first node whose array is non-empty.
    for v, arr in enumerate(arrays):
        arr = np.asarray(arr)
        if arr.size and not np.can_cast(arr.dtype, np.int64, "safe"):
            raise CliqueModelError(
                f"node {v}: {what} of dtype {arr.dtype} do not cast safely "
                "to int64 words"
            )


class CongestedClique:
    """A metered simulation of an ``n``-node congested clique.

    Args:
        n: number of nodes (node ids are ``0 .. n-1``).
        word_bits: message word size in bits; defaults to
            ``max(16, 2 ceil(log2 n))`` -- the model's ``Theta(log n)``.
        mode: schedule mode for routed exchanges (FAST or EXACT).
        executor: the :class:`~repro.clique.executor.LocalExecutor` engines
            run their per-node block products on; defaults to the serial
            in-process backend.  Executors never touch the meter, so the
            backend choice cannot change round charges.

    Attributes:
        meter: the :class:`~repro.clique.accounting.CostMeter` accumulating
            this clique's communication costs (observer #0 of ``meters``).
        meters: the :class:`~repro.clique.accounting.MeterStack` every
            primitive charges through; register further observers (e.g. a
            :mod:`repro.netsim` transport meter, via
            :meth:`attach_cost_model`) to ride along without perturbing
            the primary bill.
        transport: the attached transport cost model, or ``None``.
    """

    def __init__(
        self,
        n: int,
        *,
        word_bits: int | None = None,
        mode: ScheduleMode = ScheduleMode.FAST,
        executor: "LocalExecutor | None" = None,
    ) -> None:
        if n < 2:
            raise CliqueModelError(f"a congested clique needs >= 2 nodes, got {n}")
        self.n = n
        self.word_bits = word_bits if word_bits is not None else default_word_bits(n)
        if self.word_bits < 1:
            raise CliqueModelError(f"word size must be positive, got {self.word_bits}")
        self.mode = mode
        self.meter = CostMeter()
        self.meters = MeterStack(self.meter)
        self.transport: CostObserver | None = None
        self.executor = executor if executor is not None else SERIAL_EXECUTOR

    def attach_cost_model(self, model) -> CostObserver:
        """Register a transport cost model as a charge observer.

        ``model`` is either a ready observer (anything with an
        ``observe(cost, traffic)`` method, e.g. a
        :class:`repro.netsim.TransportMeter`) or a spec carrying a
        ``build(n, word_bits)`` factory (e.g.
        :class:`repro.netsim.CostModelSpec`) -- the factory form lets
        callers hand a topology *family* to :func:`repro.engine.make_clique`
        before the padded clique size is known.  The observer is purely
        observational: values, rounds, words and per-phase meters are
        bit-identical with or without it (property-tested).  Returns the
        attached observer, also kept as ``self.transport``.
        """
        build = getattr(model, "build", None)
        if callable(build) and not callable(getattr(model, "observe", None)):
            model = build(self.n, self.word_bits)
        bind = getattr(model, "bind", None)
        if callable(bind):
            bind(self.n, self.word_bits)
        self.meters.add_observer(model)
        self.transport = model
        return model

    # ------------------------------------------------------------------ #
    # Primitives
    # ------------------------------------------------------------------ #

    def broadcast(
        self,
        payloads: Sequence[Any],
        *,
        words: int | Sequence[int] = 1,
        phase: str = "broadcast",
    ) -> list[list[Any]]:
        """Every node sends its payload to all other nodes.

        Args:
            payloads: ``payloads[v]`` is the object node ``v`` broadcasts.
            words: width of each node's payload in words (scalar or per-node).
            phase: label for the cost meter.

        Returns:
            ``received`` with ``received[u][v] = payloads[v]`` for every pair.
            Payload objects are shared, not copied; receivers must not mutate
            them (standard simulator discipline).
        """
        n = self.n
        if len(payloads) != n:
            raise CliqueModelError(f"expected {n} payloads, got {len(payloads)}")
        if isinstance(words, int):
            widths = [words] * n
        else:
            widths = list(words)
            if len(widths) != n:
                raise CliqueModelError("per-node word widths must have length n")
        if any(w < 0 for w in widths):
            raise CliqueModelError("negative broadcast width")
        self._charge_broadcast(widths, phase)
        shared = list(payloads)
        return [shared[:] for _ in range(n)]

    def _broadcast_cost(self, widths: list[int], phase: str) -> PhaseCost:
        """The :class:`PhaseCost` of one all-to-all broadcast (not charged).

        Shared by :meth:`broadcast` and :meth:`broadcast_rows` so both
        charge bit-identical costs for identical widths; exposed separately
        from :meth:`_charge_broadcast` so the encoded collectives
        (:mod:`repro.faults`) can account the same exchange on two meters.
        """
        n = self.n
        return PhaseCost(
            phase=phase,
            primitive="broadcast",
            rounds=broadcast_rounds(widths),
            words=sum(w * (n - 1) for w in widths),
            payloads=n,
            max_send_words=max(w * (n - 1) for w in widths),
            max_recv_words=sum(widths) - min(widths),
        )

    def _charge_broadcast(self, widths: list[int], phase: str) -> None:
        """Meter one all-to-all broadcast of per-node ``widths`` words."""
        self.meters.charge(
            self._broadcast_cost(widths, phase), self._broadcast_traffic(widths)
        )

    # ------------------------------------------------------------------ #
    # Routing metadata for transport observers
    # ------------------------------------------------------------------ #
    #
    # When (and only when) a traffic-consuming observer is registered on
    # the meter stack, every charge also carries a PhaseTraffic record with
    # the exchange's actual per-piece src/dst/width vectors -- the routing
    # structure the flattened PhaseCost aggregates throw away.  The
    # builders below are pure reads of already-materialised arrays (plus,
    # in EXACT mode, a lookup of the memoised relay schedule), so the
    # abstract charge path is untouched.

    def _broadcast_traffic(self, widths: Sequence[int]) -> PhaseTraffic | None:
        if not self.meters.wants_traffic:
            return None
        return PhaseTraffic(
            n=self.n,
            kind="broadcast",
            src=np.arange(self.n, dtype=np.int64),
            dst=None,
            widths=np.asarray(widths, dtype=np.int64),
        )

    def _batch_traffic(
        self, batch, kind: str, *, relayed: bool
    ) -> PhaseTraffic | None:
        if not self.meters.wants_traffic:
            return None
        schedule = None
        if relayed and self.mode is ScheduleMode.EXACT:
            profile = analyze_array(batch, with_demand=True)
            if profile.demand:
                schedule = self._traffic_schedule(profile.demand)
        return PhaseTraffic(
            n=self.n,
            kind=kind,
            src=batch.src,
            dst=batch.dst,
            widths=batch.widths,
            relayed=relayed,
            schedule=schedule,
        )

    def _traffic_schedule(self, demand):
        """The relay schedule a transport observer should price.

        Charged rounds always come from the canonical (identity-assigned)
        schedule; when the attached cost model carries a topology, the
        *priced* schedule instead uses the cost-aware relay-slot
        assignment -- a round-equivalent choice (same matchings, same
        batches, same ``2 * ceil(matchings / n)`` rounds) with shorter
        modelled relay legs.  Both lookups are memoised per demand.
        """
        topology = getattr(self.transport, "topology", None)
        return relay_schedule(demand, self.n, topology)

    # ------------------------------------------------------------------ #
    # Array collectives
    # ------------------------------------------------------------------ #
    #
    # These primitives move whole int64 row-blocks as single NumPy arrays
    # with vectorised load accounting.  The test suite keeps a per-payload
    # reference of each (tests/tuple_reference.py) and pins that both
    # charge bit-identical costs for the same logical exchange.

    def broadcast_rows(
        self,
        rows: np.ndarray,
        *,
        widths: Sequence[int] | None = None,
        phase: str = "broadcast",
    ) -> np.ndarray:
        """Array-native broadcast: node ``v`` broadcasts ``rows[v]``.

        Args:
            rows: ``(n, ...)`` int64 array; node ``v`` owns slice ``rows[v]``.
            widths: per-node word widths; defaults to the honest per-row
                width (``row.size * words_for_value(max_abs(row))``),
                what :func:`~repro.clique.messages.words_for_array` charges
                per row.

        Returns:
            The full ``rows`` array -- every node's (shared) replica.  As
            with :meth:`broadcast`, receivers must not mutate it.
        """
        _refuse_non_integer(rows, "broadcast rows")
        if widths is not None:
            # One scalar per node: checked as a single vector.
            _refuse_non_integer(np.asarray(widths), "broadcast widths")
        rows = np.ascontiguousarray(np.asarray(rows, dtype=np.int64))
        if rows.shape[0] != self.n:
            raise CliqueModelError(
                f"expected {self.n} broadcast rows, got {rows.shape[0]}"
            )
        if widths is None:
            width_list = [
                int(w) for w in block_widths(rows.reshape(self.n, -1), self.word_bits)
            ]
        else:
            width_list = [int(w) for w in widths]
            if len(width_list) != self.n:
                raise CliqueModelError("per-node word widths must have length n")
            if any(w < 0 for w in width_list):
                raise CliqueModelError("negative broadcast width")
        return self._deliver_broadcast_rows(rows, width_list, phase)

    def _deliver_broadcast_rows(
        self, rows: np.ndarray, width_list: list[int], phase: str
    ) -> np.ndarray:
        """Charge and deliver one validated row broadcast (override seam).

        The fault-free model charges the honest widths and hands back the
        shared replica through the (identity) :meth:`_tamper_broadcast`
        seam; the coded collectives override this to run the Reed-Solomon
        striped variant with the same validated inputs.
        """
        self._charge_broadcast(width_list, phase)
        return self._tamper_broadcast(rows, phase)

    def route_array(
        self,
        dests: Sequence[np.ndarray],
        blocks: Sequence[np.ndarray],
        *,
        widths: Sequence[np.ndarray] | None = None,
        tags: Sequence[np.ndarray] | None = None,
        phase: str = "route",
        expect_max_load: int | None = None,
        flat: bool = False,
    ) -> list[ArrayInbox] | FlatInboxes:
        """Array-native Lenzen-routed exchange (the paper's workhorse).

        Node ``v`` ships the equally-shaped pieces ``blocks[v][i]`` to nodes
        ``dests[v][i]``.  Rounds charged: ``2 * ceil(L / n)`` where ``L`` is
        the maximum per-node send or receive load in words (FAST mode), or
        the emergent length of a validated relay schedule (EXACT mode).
        Load accounting (``np.bincount``-style scatter-adds over destination
        ids) and delivery (one stable sort) are vectorised over the whole
        exchange.

        Args:
            dests: per node, a ``(p_v,)`` vector of destination ids.
            blocks: per node, a ``(p_v, *piece_shape)`` int64 stack of
                pieces; the piece shape must be uniform across the exchange.
            widths: per node, ``(p_v,)`` words charged per piece; defaults
                to the honest per-piece width
                (:func:`repro.clique.messages.block_widths`).
            tags: optional per node ``(p_v,)`` metadata ints delivered with
                each piece (uncharged message headers).
            expect_max_load: optional asserted per-node load bound from the
                calling algorithm's analysis; a violation raises
                :class:`~repro.errors.LoadBoundExceededError`.
            flat: return one destination-sorted
                :class:`~repro.clique.routing.FlatInboxes` batch instead of
                a per-node inbox list (same contents, no per-node
                restacking; what the engine hot paths consume).

        Returns:
            Per destination node, an
            :class:`~repro.clique.routing.ArrayInbox` with pieces ordered by
            sender id then emission order -- or the equivalent
            :class:`~repro.clique.routing.FlatInboxes` when ``flat`` is set.
        """
        batch = self._flatten_checked(dests, blocks, widths, tags)
        self._charge_routed_batch(batch, phase, expect_max_load)
        batch = self._tamper_batch(batch, phase)
        return deliver_array_flat(batch) if flat else deliver_array(batch)

    def route_array_take(
        self,
        dests: Sequence[np.ndarray],
        blocks: Sequence[np.ndarray],
        *,
        take: np.ndarray,
        widths: Sequence[np.ndarray] | None = None,
        out: np.ndarray | None = None,
        owners: np.ndarray | None = None,
        phase: str = "route",
        expect_max_load: int | None = None,
    ) -> np.ndarray:
        """:meth:`route_array` with a *planned* delivery gather.

        Identical batch layout and **bit-identical round/load charges** to
        :meth:`route_array` (the two share the accounting path); only the
        delivery differs: instead of sorting the batch by destination, the
        received pieces are gathered by the precomputed flat index vector
        ``take`` -- one fused ``np.take`` into ``out`` (typically an
        :class:`~repro.clique.arena.ExchangeArena` buffer), no per-exchange
        ``argsort`` and no fresh concatenated inbox array.

        ``take`` must compose the exchange's delivery permutation with a
        receiver-*local* reordering only: entry ``g`` of the result is piece
        ``take[g]`` of the flattened batch, and every gathered piece must be
        addressed to the node that consumes that output slot (receivers can
        only read their own inboxes).  The engine plans satisfy this by
        construction -- their ``take`` vectors are pure functions of the
        static destination arrays -- and the equivalence tests pin the
        gathered contents against :meth:`route_array`'s inboxes.  Pass
        ``owners`` (the node id consuming each output slot) to have the
        model *enforce* receiver locality: a gather whose piece is
        addressed elsewhere raises ``CliqueModelError`` instead of leaking
        another node's traffic -- the engine plans ship their static owner
        vectors, so every hot-path exchange is checked on every call.
        """
        batch = self._flatten_checked(dests, blocks, widths, None)
        # Validate the gather *before* charging: a rejected delivery must
        # not leave phantom rounds on the meter (route_array's only failure
        # path, flattening, raises before charging too).
        take = np.asarray(take, dtype=np.intp)
        if take.size and (
            int(take.min()) < 0 or int(take.max()) >= batch.blocks.shape[0]
        ):
            raise CliqueModelError("route_array_take: take index out of range")
        if owners is not None and not np.array_equal(batch.dst[take], owners):
            raise CliqueModelError(
                "route_array_take: gather reads pieces addressed to another "
                "node (take/owners disagree with the batch destinations)"
            )
        self._charge_routed_batch(batch, phase, expect_max_load)
        batch = self._tamper_batch(batch, phase)
        return np.take(batch.blocks, take, axis=0, out=out)

    def _flatten_checked(
        self,
        dests: Sequence[np.ndarray],
        blocks: Sequence[np.ndarray],
        widths: Sequence[np.ndarray] | None,
        tags: Sequence[np.ndarray] | None,
    ):
        """Flatten one exchange, refusing input with no integer encoding."""
        try:
            _refuse_non_integer(dests, "destinations")
            _refuse_non_integer(blocks, "pieces")
            if widths is not None:
                _refuse_non_integer(widths, "widths")
            if tags is not None:
                _refuse_non_integer(tags, "tags")
            if widths is None:
                widths = [
                    block_widths(np.asarray(b, dtype=np.int64), self.word_bits)
                    for b in blocks
                ]
            return flatten_array_batch(dests, blocks, widths, tags, self.n)
        except ValueError as exc:
            raise CliqueModelError(str(exc)) from exc

    def _routed_batch_cost(
        self, batch, phase: str, expect_max_load: int | None
    ) -> PhaseCost:
        """The :class:`PhaseCost` of one routed array batch (not charged).

        Shared by both delivery styles; exposed separately from
        :meth:`_charge_routed_batch` so the encoded collectives can account
        the same exchange on two meters.
        """
        exact = self.mode is ScheduleMode.EXACT
        profile = analyze_array(batch, with_demand=exact)
        enforce_load_bound(profile, expect_max_load)
        if exact and profile.demand:
            rounds = relay_schedule(profile.demand, self.n).rounds
        else:
            rounds = relay_rounds_fast(profile.max_load, self.n)
        return PhaseCost(
            phase=phase,
            primitive="route",
            rounds=rounds,
            words=profile.total_words,
            payloads=profile.payloads,
            max_send_words=profile.max_send,
            max_recv_words=profile.max_recv,
        )

    def _charge_routed_batch(
        self, batch, phase: str, expect_max_load: int | None
    ) -> None:
        """Meter one routed array batch (shared by both delivery styles)."""
        self.meters.charge(
            self._routed_batch_cost(batch, phase, expect_max_load),
            self._batch_traffic(batch, "route", relayed=True),
        )

    # ------------------------------------------------------------------ #
    # Delivery-interception seams (identity in the fault-free model)
    # ------------------------------------------------------------------ #
    #
    # Every array-collective delivery funnels through one of these two
    # hooks *after* its cost is charged.  The base class returns its input
    # unchanged -- same objects, zero copies -- so the fault-free charge
    # path and delivered contents are bit-identical with or without the
    # seams (pinned by the equivalence suite).  The fault-injection layer
    # (:class:`repro.faults.FaultyClique`) overrides them to corrupt
    # in-transit pieces according to a seeded plan.

    def _tamper_batch(self, batch, phase: str):
        """Intercept one flattened routed/direct batch before delivery."""
        return batch

    def _tamper_broadcast(self, rows: np.ndarray, phase: str) -> np.ndarray:
        """Intercept one broadcast row/record stack before delivery."""
        return rows

    def send_array(
        self,
        dests: Sequence[np.ndarray],
        blocks: Sequence[np.ndarray],
        *,
        widths: Sequence[np.ndarray] | None = None,
        tags: Sequence[np.ndarray] | None = None,
        phase: str = "send",
        expect_max_pair: int | None = None,
    ) -> list[ArrayInbox]:
        """Array-native direct exchange: every piece travels on its own link.

        The phase costs the maximum, over ordered pairs, of the words that
        pair must carry.  Use when per-pair traffic is small (e.g. the
        O(1)-round steps of the 4-cycle algorithm); use :meth:`route_array`
        when traffic is concentrated and relaying pays off.  Batch layout
        and defaults are exactly as in :meth:`route_array`.

        Args:
            expect_max_pair: optional asserted bound on per-pair words; a
                violation raises
                :class:`~repro.errors.LoadBoundExceededError`.
        """
        batch = self._flatten_checked(dests, blocks, widths, tags)
        self.meters.charge(
            self._direct_batch_cost(batch, phase, expect_max_pair),
            self._batch_traffic(batch, "send", relayed=False),
        )
        batch = self._tamper_batch(batch, phase)
        return deliver_array(batch)

    def _direct_batch_cost(
        self, batch, phase: str, expect_max_pair: int | None
    ) -> PhaseCost:
        """The :class:`PhaseCost` of one direct array batch (not charged)."""
        profile = analyze_array(batch, with_demand=True)
        rounds = direct_rounds(profile.demand)
        if expect_max_pair is not None and rounds > expect_max_pair:
            raise LoadBoundExceededError(
                f"per-pair traffic of {rounds} words exceeds the asserted "
                f"bound {expect_max_pair}"
            )
        return PhaseCost(
            phase=phase,
            primitive="send",
            rounds=rounds,
            words=profile.total_words,
            payloads=profile.payloads,
            max_send_words=profile.max_send,
            max_recv_words=profile.max_recv,
        )

    def scatter_blocks(
        self,
        blocks: np.ndarray,
        *,
        widths: Sequence[np.ndarray] | None = None,
        phase: str = "scatter",
        expect_max_load: int | None = None,
    ) -> np.ndarray:
        """Block all-to-all: node ``v`` ships piece ``blocks[v, j]`` to node ``j``.

        The dense personalised exchange behind the bilinear engine's
        farm-out steps: every node addresses the same ``k <= n`` receivers,
        so destinations need not be materialised per piece and the inboxes
        come back as one dense array.

        Args:
            blocks: ``(n, k, *piece_shape)`` int64 stack; ``blocks[v, j]``
                is the piece node ``v`` sends to node ``j``.
            widths: per node, ``(k,)`` words charged per piece; defaults to
                the honest per-piece width.
            expect_max_load: asserted per-node load bound, as in
                :meth:`route_array`.

        Returns:
            ``(k, n, *piece_shape)`` with ``out[j, v] = blocks[v, j]`` --
            receiver ``j``'s pieces indexed by sender.
        """
        blocks = np.ascontiguousarray(np.asarray(blocks, dtype=np.int64))
        if blocks.ndim < 2 or blocks.shape[0] != self.n:
            raise CliqueModelError(
                f"scatter_blocks expects an ({self.n}, k, ...) block stack"
            )
        k = blocks.shape[1]
        if not 1 <= k <= self.n:
            raise CliqueModelError(
                f"scatter_blocks needs 1 <= k <= n receivers, got k={k}"
            )
        dest_row = np.arange(k, dtype=np.int64)
        inboxes = self.route_array(
            [dest_row] * self.n,
            list(blocks),
            widths=widths,
            phase=phase,
            expect_max_load=expect_max_load,
        )
        # Every sender addresses receiver j exactly once, so inbox j holds
        # one piece per sender in ascending sender order.
        return np.stack([inboxes[j].blocks for j in range(k)])

    def gather_blocks(
        self,
        blocks: np.ndarray,
        *,
        widths: Sequence[np.ndarray] | None = None,
        phase: str = "gather",
        expect_max_load: int | None = None,
    ) -> np.ndarray:
        """Inverse block all-to-all: node ``v < k`` ships ``blocks[v, u]`` to ``u``.

        The collection half of a farm-out: ``k <= n`` worker nodes each hold
        one piece for every node, and every node ends up with its ``k``
        pieces indexed by worker.

        Args:
            blocks: ``(k, n, *piece_shape)`` int64 stack; ``blocks[v, u]``
                is the piece worker ``v`` sends to node ``u``.  Nodes
                ``>= k`` send nothing.
            widths: per worker, ``(n,)`` words charged per piece; defaults
                to the honest per-piece width.
            expect_max_load: asserted per-node load bound, as in
                :meth:`route_array`.

        Returns:
            ``(n, k, *piece_shape)`` with ``out[u, v] = blocks[v, u]``.
        """
        blocks = np.ascontiguousarray(np.asarray(blocks, dtype=np.int64))
        if blocks.ndim < 2 or blocks.shape[1] != self.n:
            raise CliqueModelError(
                f"gather_blocks expects a (k, {self.n}, ...) block stack"
            )
        k = blocks.shape[0]
        if not 1 <= k <= self.n:
            raise CliqueModelError(
                f"gather_blocks needs 1 <= k <= n senders, got k={k}"
            )
        piece_shape = blocks.shape[2:]
        dest_row = np.arange(self.n, dtype=np.int64)
        empty_dests = np.zeros(0, dtype=np.int64)
        empty_block = np.zeros((0,) + piece_shape, dtype=np.int64)
        dests = [dest_row] * k + [empty_dests] * (self.n - k)
        block_list = list(blocks) + [empty_block] * (self.n - k)
        width_list: Sequence[np.ndarray] | None = None
        if widths is not None:
            if len(widths) != k:
                raise CliqueModelError(
                    f"gather_blocks expects {k} per-sender width vectors"
                )
            width_list = list(widths) + [empty_dests] * (self.n - k)
        inboxes = self.route_array(
            dests,
            block_list,
            widths=width_list,
            phase=phase,
            expect_max_load=expect_max_load,
        )
        # Every node receives exactly one piece from each sender < k, in
        # ascending sender order.
        return np.stack([inboxes[u].blocks for u in range(self.n)])

    def allgather_rows(
        self,
        rows_per_node: Sequence[np.ndarray],
        *,
        words_per_record: int = 1,
        phase: str = "allgather",
    ) -> np.ndarray:
        """Replicate all records to every node in ``O(R / n)`` rounds.

        This is the "collect full information about the graph structure"
        primitive of Dolev et al. [24] used by the girth algorithm: first the
        per-node record counts are broadcast (so everyone can compute the
        balanced placement), then records are routed to evenly loaded holders
        (round-robin by global index), and finally each holder broadcasts its
        ``<= ceil(R / n)`` records.

        Args:
            rows_per_node: per node, an ``(r_v, record_width)`` int64 array
                of records (``record_width`` uniform across nodes).
            words_per_record: words charged per record.

        Returns:
            The canonical combined ``(R, record_width)`` record array (every
            node's copy is identical; one shared array is returned to avoid
            an ``n``-fold memory blow-up in the simulator), in holder order.
        """
        n = self.n
        if len(rows_per_node) != n:
            raise CliqueModelError(f"expected {n} record arrays")
        _refuse_non_integer(rows_per_node, "records")
        rows = [np.asarray(r, dtype=np.int64) for r in rows_per_node]
        record_widths = {r.shape[1:] for r in rows}
        if any(r.ndim != 2 for r in rows) or len(record_widths) != 1:
            raise CliqueModelError(
                "allgather_rows expects (r_v, record_width) arrays with a "
                "uniform record width"
            )
        record_width = rows[0].shape[1]
        counts = [int(r.shape[0]) for r in rows]
        self.broadcast(counts, words=1, phase=f"{phase}/counts")
        total = sum(counts)
        if total == 0:
            return np.zeros((0, record_width), dtype=np.int64)
        offsets = np.concatenate(([0], np.cumsum(counts)))
        dests = [
            (offsets[v] + np.arange(counts[v], dtype=np.int64)) % n
            for v in range(n)
        ]
        widths = [
            np.full(counts[v], words_per_record, dtype=np.int64)
            for v in range(n)
        ]
        inboxes = self.route_array(
            dests, rows, widths=widths, phase=f"{phase}/balance"
        )
        held = [inboxes[v].blocks for v in range(n)]
        per_holder = math.ceil(total / n)
        bcast_widths = [
            min(h.shape[0], per_holder) * words_per_record for h in held
        ]
        if any(h.shape[0] > per_holder for h in held):
            raise AssertionError("round-robin placement exceeded ceil(R/n)")
        return self._broadcast_held(held, bcast_widths, f"{phase}/broadcast")

    def _broadcast_held(
        self,
        held: list[np.ndarray],
        bcast_widths: list[int],
        phase: str,
    ) -> np.ndarray:
        """Charge and deliver the holders' broadcast of an allgather.

        The override seam for the final phase of :meth:`allgather_rows`:
        the fault-free model charges the per-holder widths and concatenates
        the held records (through the identity :meth:`_tamper_broadcast`);
        the coded collectives override it with the Reed-Solomon striped
        variant.
        """
        self._charge_broadcast(bcast_widths, phase)
        return self._tamper_broadcast(np.concatenate(held, axis=0), phase)

    def transpose_array(
        self,
        matrix: np.ndarray,
        *,
        words_per_entry: int = 1,
        phase: str = "transpose",
    ) -> np.ndarray:
        """Array-native one-round transpose of an ``(n, n)`` int64 matrix.

        Node ``v`` sends ``matrix[v, u]`` to node ``u``; node ``u`` ends up
        holding column ``u``, i.e. row ``u`` of the transpose.  Every ordered
        pair carries exactly ``words_per_entry`` words, so the phase costs
        ``words_per_entry`` rounds.
        """
        _refuse_non_integer(matrix, "transpose entries")
        matrix = np.asarray(matrix, dtype=np.int64)
        n = self.n
        if matrix.shape != (n, n):
            raise CliqueModelError("transpose_array expects an n x n matrix")
        if words_per_entry < 1:
            raise CliqueModelError(
                f"non-positive word count {words_per_entry}"
            )
        traffic = None
        if self.meters.wants_traffic:
            u, v = np.divmod(np.arange(n * n, dtype=np.int64), n)
            off = u != v
            traffic = PhaseTraffic(
                n=n,
                kind="send",
                src=u[off],
                dst=v[off],
                widths=np.full(n * (n - 1), words_per_entry, dtype=np.int64),
            )
        self.meters.charge(
            PhaseCost(
                phase=phase,
                primitive="send",
                rounds=words_per_entry,
                words=words_per_entry * n * (n - 1),
                payloads=n * n,
                max_send_words=(n - 1) * words_per_entry,
                max_recv_words=(n - 1) * words_per_entry,
            ),
            traffic,
        )
        return matrix.T.copy()

    # ------------------------------------------------------------------ #
    # Helpers
    # ------------------------------------------------------------------ #

    @property
    def rounds(self) -> int:
        """Total rounds charged on this clique so far."""
        return self.meter.rounds

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CongestedClique(n={self.n}, word_bits={self.word_bits}, "
            f"mode={self.mode.value}, rounds={self.rounds})"
        )


__all__ = ["CongestedClique", "ScheduleMode"]
