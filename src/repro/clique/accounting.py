"""Round/message/word accounting for the congested-clique simulator.

The congested clique charges one synchronous *round* for every node sending
one ``O(log n)``-bit message to every other node.  The unit of accounting is
the *word*: a payload of ``w`` words from ``u`` to ``v`` occupies the directed
link ``(u, v)`` for ``w`` rounds if sent directly, and contributes ``w`` to
``u``'s send load and ``v``'s receive load if relayed.

Every communication primitive charges exactly one :class:`PhaseCost` to the
meter, so an algorithm's total round count decomposes into a per-phase
breakdown that mirrors the step structure of the paper's algorithm
descriptions (e.g. "Step 1: Distributing the entries").

**The meter stack.**  The simulator owns a :class:`MeterStack` and every
charge fans out to all registered *observers*.  An observer is anything
with an ``observe(cost, traffic)`` method; :class:`CostMeter` itself is
one (it ignores ``traffic``), and stays observer #0 of every clique, so no
other observer can change the round bill.  Further observers ride along
without touching the primitives: the :mod:`repro.netsim` transport meter,
and the test suite's schedule certifier, which checks every charged bill
against an explicit schedule.  Both declare ``needs_traffic`` and receive a
:class:`PhaseTraffic` record -- the charged exchange's ``(n, n)`` pair-word
matrix, the one its bill was computed from -- next to every cost.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Protocol, runtime_checkable

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np


@dataclass(frozen=True)
class PhaseCost:
    """Cost of one communication phase (one primitive invocation).

    Attributes:
        phase: human-readable phase label, e.g. ``"semiring3d/step1"``.
        primitive: which primitive charged this cost (``broadcast``, ``send``,
            ``route``, ...).
        rounds: synchronous rounds consumed by the phase.
        words: total words shipped across all links during the phase.
        payloads: number of logical payload messages (one payload may span
            many words).
        max_send_words: maximum, over nodes, of words sent by that node.
        max_recv_words: maximum, over nodes, of words received by that node.
    """

    phase: str
    primitive: str
    rounds: int
    words: int
    payloads: int
    max_send_words: int
    max_recv_words: int

    def to_dict(self) -> dict[str, Any]:
        """Machine-readable form (plain JSON scalars)."""
        return {
            "phase": self.phase,
            "primitive": self.primitive,
            "rounds": int(self.rounds),
            "words": int(self.words),
            "payloads": int(self.payloads),
            "max_send_words": int(self.max_send_words),
            "max_recv_words": int(self.max_recv_words),
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "PhaseCost":
        """Inverse of :meth:`to_dict` (round-trip tested)."""
        return cls(
            phase=str(data["phase"]),
            primitive=str(data["primitive"]),
            rounds=int(data["rounds"]),
            words=int(data["words"]),
            payloads=int(data["payloads"]),
            max_send_words=int(data["max_send_words"]),
            max_recv_words=int(data["max_recv_words"]),
        )


@dataclass(frozen=True)
class PhaseTraffic:
    """The traffic of one charged phase: the words each node pair carries.

    What the transport cost model (:mod:`repro.netsim`) and the test
    suite's schedule certifier need that the flattened :class:`PhaseCost`
    aggregates no longer carry.  It is the same matrix the phase was billed
    from: the bill, the price and the certificate read the same words.

    Attributes:
        kind: ``"route"`` / ``"send"`` / ``"broadcast"`` -- the logical
            shape of the exchange; a ``route`` ships through the two-hop
            Lenzen relay construction, the others over direct links.
        pairs: ``(n, n)`` int64 matrix; ``pairs[u, v]`` is the words ``u``
            ships ``v``.  The diagonal is zero (self-addressed pieces never
            leave their node).  A Reed-Solomon coded piece adds the words
            of all its ``m`` stripes, which share its source and
            destination (:class:`~repro.faults.protocol.CodedClique`).
    """

    kind: str
    pairs: "np.ndarray"

    @property
    def n(self) -> int:
        """Clique size the exchange ran on."""
        return int(self.pairs.shape[0])


@runtime_checkable
class CostObserver(Protocol):
    """Anything a :class:`MeterStack` can fan a charge out to."""

    def observe(self, cost: PhaseCost, traffic: PhaseTraffic | None) -> None:
        """Record one charged phase (``traffic`` may be ``None``)."""


@dataclass
class CostMeter:
    """Accumulates :class:`PhaseCost` records for one simulation run."""

    phases: list[PhaseCost] = field(default_factory=list)

    #: Cost meters never consume traffic; the stack skips building
    #: :class:`PhaseTraffic` records unless some observer sets this.
    needs_traffic = False

    def charge(self, cost: PhaseCost) -> None:
        """Record the cost of one completed phase."""
        if cost.rounds < 0:
            raise ValueError(f"negative round charge: {cost!r}")
        self.phases.append(cost)

    def observe(self, cost: PhaseCost, traffic: PhaseTraffic | None = None) -> None:
        """Observer protocol: a plain meter charges the cost, ignores traffic."""
        self.charge(cost)

    @property
    def rounds(self) -> int:
        """Total rounds across all phases charged so far."""
        return sum(p.rounds for p in self.phases)

    @property
    def words(self) -> int:
        """Total words shipped across all phases charged so far."""
        return sum(p.words for p in self.phases)

    @property
    def payloads(self) -> int:
        """Total logical payload messages across all phases."""
        return sum(p.payloads for p in self.phases)

    @property
    def max_node_load(self) -> int:
        """Largest per-node send or receive load seen in any single phase."""
        if not self.phases:
            return 0
        return max(max(p.max_send_words, p.max_recv_words) for p in self.phases)

    def reset(self) -> None:
        """Discard all recorded phases."""
        self.phases.clear()

    def snapshot(self) -> int:
        """Return the current number of recorded phases.

        Use together with :meth:`rounds_since` to measure a sub-computation:

        >>> meter = CostMeter()
        >>> mark = meter.snapshot()
        >>> # ... run something that charges the meter ...
        >>> meter.rounds_since(mark)
        0
        """
        return len(self.phases)

    def rounds_since(self, mark: int) -> int:
        """Rounds charged since a :meth:`snapshot` mark."""
        return sum(p.rounds for p in self.phases[mark:])

    def words_since(self, mark: int) -> int:
        """Words charged since a :meth:`snapshot` mark."""
        return sum(p.words for p in self.phases[mark:])

    def by_phase_prefix(self) -> dict[str, int]:
        """Aggregate rounds by the phase-label prefix before the first ``/``.

        The matmul algorithms label their phases ``"<algo>/<step>"``; this
        groups the step costs back into per-algorithm totals.
        """
        out: dict[str, int] = {}
        for p in self.phases:
            key = p.phase.split("/", 1)[0]
            out[key] = out.get(key, 0) + p.rounds
        return out

    def to_dict(self) -> dict[str, Any]:
        """Machine-readable meter summary (the ``--json`` CLI payload).

        Totals plus the full per-phase breakdown; everything is a plain
        JSON scalar, and :meth:`from_dict` restores an equal meter.
        """
        return {
            "rounds": int(self.rounds),
            "words": int(self.words),
            "payloads": int(self.payloads),
            "max_node_load": int(self.max_node_load),
            "phases": [p.to_dict() for p in self.phases],
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "CostMeter":
        """Inverse of :meth:`to_dict` (totals are recomputed, not trusted)."""
        return cls(phases=[PhaseCost.from_dict(p) for p in data["phases"]])

    def report(self) -> str:
        """Human-readable per-phase cost table."""
        lines = [
            f"{'phase':40s} {'prim':10s} {'rounds':>8s} {'words':>12s} "
            f"{'maxsend':>9s} {'maxrecv':>9s}"
        ]
        for p in self.phases:
            lines.append(
                f"{p.phase:40s} {p.primitive:10s} {p.rounds:8d} {p.words:12d} "
                f"{p.max_send_words:9d} {p.max_recv_words:9d}"
            )
        lines.append(f"{'TOTAL':40s} {'':10s} {self.rounds:8d} {self.words:12d}")
        return "\n".join(lines)


class MeterStack:
    """A composable stack of charge observers (the metering seam).

    The simulator charges every :class:`PhaseCost` here instead of on a
    hard-wired meter; the stack fans the charge (and the optional
    :class:`PhaseTraffic` record) out to every registered observer in
    registration order.  Observer #0 is always the clique's primary
    :class:`CostMeter`, so the round/word bill is bit-identical to the
    single-meter behaviour by construction -- additional observers
    (transport cost models, the test suite's schedule certifier) are
    strictly read-only riders and can never change what observer #0 sees.
    """

    def __init__(self, *observers: CostObserver) -> None:
        self._observers: list[CostObserver] = list(observers)

    @property
    def observers(self) -> tuple[CostObserver, ...]:
        """The registered observers, in fan-out order."""
        return tuple(self._observers)

    def add_observer(self, observer: CostObserver) -> CostObserver:
        """Register ``observer`` at the end of the fan-out order."""
        if not callable(getattr(observer, "observe", None)):
            raise TypeError(
                f"meter-stack observers need an observe(cost, traffic) "
                f"method, got {observer!r}"
            )
        self._observers.append(observer)
        return observer

    def remove_observer(self, observer: CostObserver) -> None:
        """Unregister ``observer`` (identity match; missing is an error)."""
        for i, existing in enumerate(self._observers):
            if existing is observer:
                del self._observers[i]
                return
        raise ValueError(f"{observer!r} is not a registered observer")

    @property
    def wants_traffic(self) -> bool:
        """Whether any observer consumes pair-word traffic.

        The simulator only builds :class:`PhaseTraffic` records when this
        is set, so the plain round-metering path builds none.
        """
        return any(getattr(obs, "needs_traffic", False) for obs in self._observers)

    def charge(self, cost: PhaseCost, traffic: PhaseTraffic | None = None) -> None:
        """Fan one charged phase out to every observer."""
        for obs in self._observers:
            obs.observe(cost, traffic)


__all__ = [
    "PhaseCost",
    "PhaseTraffic",
    "CostObserver",
    "CostMeter",
    "MeterStack",
]
