"""The congested clique simulator.

``CongestedClique`` provides the communication primitives the paper's
algorithms are written against, with every primitive metering its cost in
synchronous rounds under the model's bandwidth constraint (one ``O(log n)``
bit word per ordered node pair per round).  The paper's algorithms, and the
Dolev et al. baselines, move data only by broadcasts, direct sends and
Lenzen-routed exchanges [46]; those are:

* :meth:`CongestedClique.broadcast_rows` -- node ``v`` sends row ``v`` of
  an int64 array to all others; ``w`` words per node cost ``max(w)``
  rounds.
* :meth:`CongestedClique.route_array` -- Lenzen-routed exchange of int64
  pieces; costs ``2 * ceil(L / n)`` rounds for maximum per-node load ``L``
  (the test suite certifies every such charge against an explicit relay
  schedule of that length).  Its planned-delivery variant
  :meth:`CongestedClique.route_array_take` gathers inboxes by a
  precomputed index vector into a caller-owned buffer
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

Every exchange moves whole ``int64`` arrays with vectorised load
accounting, and is charged and delivered through one of two seams:
``_deliver_batch`` (routed and direct exchanges, transposes included) or
``_deliver_broadcast`` (row broadcasts and both broadcast phases of an
allgather).  Here each seam charges the bill and returns the pieces as
sent; the fault layer (:mod:`repro.faults`) overrides exactly these two,
so no exchange bypasses it.  Words are integers in this model, so a
non-empty piece, destination, width or tag array whose dtype does not
cast safely to ``int64`` (floats, NaN, objects) is refused with
:class:`~repro.errors.CliqueModelError` instead of being floored or
wrapped on the way in.

Algorithms written on top keep **node-local state in per-node containers**
(lists indexed by node id) and only exchange data through these primitives;
that discipline is what makes the simulated round counts meaningful.
"""

from __future__ import annotations

import math
import operator
from dataclasses import replace
from functools import lru_cache
from typing import Sequence

import numpy as np

from repro.clique.accounting import (
    CostMeter,
    CostObserver,
    MeterStack,
    PhaseCost,
    PhaseTraffic,
)
from repro.clique.executor import Executor
from repro.clique.messages import block_widths, default_word_bits
from repro.clique.routing import (
    ArrayBatch,
    ArrayInbox,
    FlatInboxes,
    analyze_array,
    deliver_array,
    deliver_array_flat,
    enforce_load_bound,
    flatten_array_batch,
    pair_words,
)
from repro.clique.scheduling import broadcast_rounds, direct_rounds, relay_rounds
from repro.errors import CliqueModelError, LoadBoundExceededError


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


def _word_count(value, what: str) -> int:
    """``value`` as a whole number of words, at least one.

    Word counts are integers in this model: a fractional count would leave
    a fractional round charge on the meter, so it is refused (as is a count
    below one) before anything is charged.
    """
    try:
        count = operator.index(value)
    except TypeError:
        raise CliqueModelError(
            f"{what} must be an integer number of words, got {value!r}"
        ) from None
    if count < 1:
        raise CliqueModelError(f"{what} must be at least 1, got {count}")
    return count


@lru_cache(maxsize=8)
def _transpose_ends(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only sources and destinations of a transpose's ``n * n`` pieces.

    Piece ``v * n + u`` travels ``v -> u``; the pattern depends on ``n``
    alone, so repeated transposes share one copy.
    """
    nodes = np.arange(n, dtype=np.int64)
    src, dst = np.repeat(nodes, n), np.tile(nodes, n)
    src.flags.writeable = dst.flags.writeable = False
    return src, dst


def _broadcast_widths(widths, n: int) -> np.ndarray:
    """``widths`` as ``n`` non-negative int64 word counts, one per node.

    Anything else -- a scalar, a vector of the wrong length, a fractional,
    float or object entry, a negative count -- has no honest broadcast
    bill, so it is refused with the whole vector named before anything is
    charged.
    """
    vec = np.asarray(widths)
    if (
        vec.shape != (n,)
        or not np.can_cast(vec.dtype, np.int64, "safe")
        or bool((vec < 0).any())
    ):
        raise CliqueModelError(
            f"broadcast widths must be {n} non-negative integer word counts, "
            f"one per node; got {widths!r}"
        )
    return vec.astype(np.int64)


class CongestedClique:
    """A metered simulation of an ``n``-node congested clique.

    Args:
        n: number of nodes (node ids are ``0 .. n-1``).
        word_bits: message word size in bits; defaults to
            ``max(16, 2 ceil(log2 n))`` -- the model's ``Theta(log n)``.
        threads: kernel tile threads of the clique's
            :class:`~repro.clique.executor.Executor`, which the engines run
            their per-node block products on (default 1, serial tiles).
            The executor never touches the meter, so the thread count
            cannot change round charges.

    Attributes:
        executor: the clique's :class:`~repro.clique.executor.Executor`.
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
        threads: int = 1,
    ) -> None:
        if n < 2:
            raise CliqueModelError(f"a congested clique needs >= 2 nodes, got {n}")
        self.n = n
        self.word_bits = word_bits if word_bits is not None else default_word_bits(n)
        if self.word_bits < 1:
            raise CliqueModelError(f"word size must be positive, got {self.word_bits}")
        self.meter = CostMeter()
        self.meters = MeterStack(self.meter)
        self.transport: CostObserver | None = None
        self.executor = Executor(threads)

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
    # Delivery seams
    # ------------------------------------------------------------------ #
    #
    # Every exchange, once validated and priced, is charged and delivered
    # by one of these two methods.  Here they charge the bill and return
    # the pieces as sent -- same array, no copy -- so a plain run's values
    # and meters are exactly those of the closed forms.  The fault layer
    # (repro.faults) overrides both: FaultyClique corrupts the pieces after
    # the charge, CodedClique ships them Reed-Solomon striped.

    def _deliver_batch(
        self, batch: ArrayBatch, cost: PhaseCost, traffic: PhaseTraffic | None
    ) -> np.ndarray:
        """Charge one routed or direct batch; return the blocks delivered.

        ``cost`` is the batch's fault-free bill and ``traffic`` its routing
        record (``None`` unless an observer wants one).  Row ``i`` of the
        result is what node ``batch.dst[i]`` receives for piece ``i``.
        """
        self.meters.charge(cost, traffic)
        return batch.blocks

    def _deliver_broadcast(
        self,
        pieces: np.ndarray,
        owners: np.ndarray,
        widths: np.ndarray,
        phase: str,
    ) -> np.ndarray:
        """Charge one broadcast; return the pieces every node receives.

        Node ``owners[i]`` broadcasts piece ``pieces[i]``, billed
        ``widths[i]`` words; the bill follows each node's total width.
        One shared replica stands for every receiver's copy.
        """
        node_widths = self._node_widths(owners, widths)
        self.meters.charge(
            self._broadcast_cost(node_widths, phase),
            self._broadcast_traffic(node_widths),
        )
        return pieces

    def _node_widths(self, owners: np.ndarray, widths: np.ndarray) -> list[int]:
        """Per-node broadcast widths: the words of the pieces each node owns."""
        per_node = np.zeros(self.n, dtype=np.int64)
        np.add.at(per_node, owners, widths)
        return per_node.tolist()

    def _broadcast_cost(self, widths: list[int], phase: str) -> PhaseCost:
        """The :class:`PhaseCost` of one all-to-all broadcast (not charged)."""
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

    # ------------------------------------------------------------------ #
    # Routing metadata for transport observers
    # ------------------------------------------------------------------ #
    #
    # When (and only when) a traffic-consuming observer is registered on
    # the meter stack, every charge also carries a PhaseTraffic record with
    # the exchange's actual per-piece src/dst/width vectors -- the routing
    # structure the flattened PhaseCost aggregates throw away.  The
    # builders below are pure reads of already-materialised arrays, so the
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
        return PhaseTraffic(
            n=self.n,
            kind=kind,
            src=batch.src,
            dst=batch.dst,
            widths=batch.widths,
            relayed=relayed,
        )

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
            widths: per-node word widths, a length-``n`` vector of
                non-negative integers; defaults to the honest per-row
                width (``row.size * words_for_value(max_abs(row))``),
                what :func:`~repro.clique.messages.words_for_array` charges
                per row.

        Returns:
            The delivered ``(n, ...)`` rows -- one shared replica standing
            for every node's copy; receivers must not mutate it.
        """
        _refuse_non_integer(rows, "broadcast rows")
        rows = np.ascontiguousarray(np.asarray(rows, dtype=np.int64))
        if rows.shape[0] != self.n:
            raise CliqueModelError(
                f"expected {self.n} broadcast rows, got {rows.shape[0]}"
            )
        if widths is None:
            width_vec = block_widths(rows.reshape(self.n, -1), self.word_bits)
        else:
            width_vec = _broadcast_widths(widths, self.n)
        return self._deliver_broadcast(
            rows, np.arange(self.n, dtype=np.int64), width_vec, phase
        )

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
        the maximum per-node send or receive load in words.  Load
        accounting (``np.bincount``-style scatter-adds over destination
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
        delivered = self._deliver_batch(
            batch,
            self._routed_batch_cost(batch, phase, expect_max_load),
            self._batch_traffic(batch, "route", relayed=True),
        )
        batch = replace(batch, blocks=delivered)
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

        The gather writes ``out`` directly, without NumPy's output
        buffering: under its default ``mode="raise"``, ``np.take`` copies
        through a temporary as large as ``out``, so the gather runs with
        ``mode="clip"``, which never fires because ``take`` is range-checked
        above.  An unbuffered gather would read its own writes if ``out``
        overlapped the pieces it reads, so an ``out`` that may share memory
        with the sent pieces (on a plain clique, the delivered ones) is
        refused.  Both refusals come before anything is charged.
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
        if out is not None and np.may_share_memory(out, batch.blocks):
            raise CliqueModelError(
                "route_array_take: out overlaps the delivered pieces (an "
                "unbuffered gather would read its own writes)"
            )
        delivered = self._deliver_batch(
            batch,
            self._routed_batch_cost(batch, phase, expect_max_load),
            self._batch_traffic(batch, "route", relayed=True),
        )
        return np.take(delivered, take, axis=0, out=out, mode="clip")

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
        """The :class:`PhaseCost` of one routed array batch (not charged)."""
        profile = analyze_array(batch)
        enforce_load_bound(profile, expect_max_load)
        return PhaseCost(
            phase=phase,
            primitive="route",
            rounds=relay_rounds(profile.max_load, self.n),
            words=profile.total_words,
            payloads=profile.payloads,
            max_send_words=profile.max_send,
            max_recv_words=profile.max_recv,
        )

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
        delivered = self._deliver_batch(
            batch,
            self._direct_batch_cost(batch, phase, expect_max_pair),
            self._batch_traffic(batch, "send", relayed=False),
        )
        return deliver_array(replace(batch, blocks=delivered))

    def _direct_batch_cost(
        self, batch, phase: str, expect_max_pair: int | None
    ) -> PhaseCost:
        """The :class:`PhaseCost` of one direct array batch (not charged)."""
        profile = analyze_array(batch)
        rounds = direct_rounds(pair_words(batch))
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
            words_per_record: words charged per record; an integer >= 1.

        Returns:
            The canonical combined ``(R, record_width)`` record array (every
            node's copy is identical; one shared array is returned to avoid
            an ``n``-fold memory blow-up in the simulator), in holder order.
        """
        n = self.n
        words_per_record = _word_count(words_per_record, "words_per_record")
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
        everyone = np.arange(n, dtype=np.int64)
        self._deliver_broadcast(
            np.asarray(counts, dtype=np.int64),
            everyone,
            np.ones(n, dtype=np.int64),
            f"{phase}/counts",
        )
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
        if any(h.shape[0] > math.ceil(total / n) for h in held):
            raise AssertionError("round-robin placement exceeded ceil(R/n)")
        return self._deliver_broadcast(
            np.concatenate(held, axis=0),
            np.repeat(everyone, [h.shape[0] for h in held]),
            np.full(total, words_per_record, dtype=np.int64),
            f"{phase}/broadcast",
        )

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
        pair carries exactly ``words_per_entry`` words (an integer >= 1), so
        the phase costs ``words_per_entry`` rounds.
        """
        words_per_entry = _word_count(words_per_entry, "words_per_entry")
        _refuse_non_integer(matrix, "transpose entries")
        matrix = np.asarray(matrix, dtype=np.int64)
        n = self.n
        if matrix.shape != (n, n):
            raise CliqueModelError("transpose_array expects an n x n matrix")
        # n * n one-entry pieces; the diagonal stays home as free self
        # pieces, so each ordered pair carries exactly one entry and the
        # bill is the closed form below.
        src, dst = _transpose_ends(n)
        batch = ArrayBatch(
            n=n,
            src=src,
            dst=dst,
            widths=np.broadcast_to(np.int64(words_per_entry), (n * n,)),
            blocks=matrix.reshape(n * n, 1),
            tags=None,
        )
        cost = PhaseCost(
            phase=phase,
            primitive="send",
            rounds=words_per_entry,
            words=words_per_entry * n * (n - 1),
            payloads=n * n,
            max_send_words=(n - 1) * words_per_entry,
            max_recv_words=(n - 1) * words_per_entry,
        )
        delivered = self._deliver_batch(
            batch, cost, self._batch_traffic(batch, "send", relayed=False)
        )
        # Piece v * n + u travelled v -> u: receiver u's row is column u.
        return delivered.reshape(n, n).T.copy()

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
            f"rounds={self.rounds})"
        )


def or_broadcast(
    clique: CongestedClique, local_bits: Sequence[bool] | np.ndarray, phase: str
) -> bool:
    """One round: every node announces a bit; returns the OR of those received."""
    received = clique.broadcast_rows(
        np.asarray(local_bits, dtype=np.int64), widths=[1] * clique.n, phase=phase
    )
    return bool(received.any())


def sum_broadcast(
    clique: CongestedClique, local_values: list[int], phase: str, words: int = 2
) -> int:
    """One broadcast: every node announces a partial sum; returns the total.

    ``words=2`` covers values up to ``n^{O(1)}`` at the default word size --
    the widths triangle/4-cycle partial counts need.  The values go in
    uncast, so one with no int64 word encoding is refused by name.
    """
    received = clique.broadcast_rows(
        local_values, widths=[words] * clique.n, phase=phase
    )
    return sum(received.tolist())


__all__ = ["CongestedClique", "or_broadcast", "sum_broadcast"]
