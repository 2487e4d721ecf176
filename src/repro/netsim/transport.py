"""Alpha-beta transport cost model riding the meter stack.

:class:`TransportMeter` is a :class:`~repro.clique.accounting.CostObserver`
that declares ``needs_traffic``: alongside every charged
:class:`~repro.clique.accounting.PhaseCost` it receives the
:class:`~repro.clique.accounting.PhaseTraffic` record -- the ``(n, n)``
matrix of words per ordered node pair the phase was billed from.  It turns
each phase into one or two traffic *legs*, each itself a pair matrix,
maps every leg onto the attached :class:`~repro.netsim.topology.Topology`,
and prices it with the classic alpha-beta model:

* serialization: the bottleneck link drains its FIFO at line rate --
  ``max_link_words * word_bits / link_gbps`` (in microseconds);
* propagation: ``max_hops * link_latency_us`` (the alpha term, paid once
  per leg since transfers on a leg are concurrent);
* queueing: the bottleneck port's excess over a perfectly balanced drain,
  ``(max_link - mean_link) * word_bits / link_gbps`` -- already contained
  in the serialization term, reported separately as the load-imbalance
  share of the makespan.

The legs mirror how the collectives actually ship:

* ``broadcast`` and ``send`` (direct exchanges): one leg, the matrix
  itself.
* ``route``: the Lenzen routing closed form, the same one the round bill
  uses -- two balanced legs: source ``u`` spreads its row sum evenly over
  all ``n`` relays, and every relay forwards ``1/n`` of destination
  ``v``'s column sum.  Self-addressed words never leave their node, so
  they are in neither sum.  Link loads are linear in the words, so each
  leg is mapped on the integer sums and its loads divided by ``n``: a
  link that carries nothing reads exactly zero.

The meter is **purely observational**: it never touches values, rounds,
words, or any other observer's bill (property-tested per topology).  A
charge that arrives without its traffic is refused by name: there is
nothing honest to price.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field, replace
from typing import Any

import numpy as np

from repro.clique.accounting import PhaseCost, PhaseTraffic
from repro.netsim.topology import LegStats, Topology

#: Default word width (bits) when no clique has bound one.
DEFAULT_WORD_BITS = 64


def _serialization_us(words: float, word_bits: int, link_gbps: float) -> float:
    # words * word_bits = bits; / (Gbit/s * 1000) = microseconds.
    return words * word_bits / (link_gbps * 1000.0)


def _check_link(link_gbps: float, link_latency_us: float) -> tuple[float, float]:
    """``(link_gbps, link_latency_us)`` as floats, or ``ValueError``.

    A bandwidth must be finite and positive and a latency finite and
    non-negative: a NaN or infinite parameter would price every phase as
    NaN, as zero serialization or as infinite latency.
    """
    gbps, latency = float(link_gbps), float(link_latency_us)
    if not (math.isfinite(gbps) and gbps > 0.0):
        raise ValueError(
            f"link_gbps must be a finite positive bandwidth, got {link_gbps!r}"
        )
    if not (math.isfinite(latency) and latency >= 0.0):
        raise ValueError(
            f"link_latency_us must be a finite non-negative latency, "
            f"got {link_latency_us!r}"
        )
    return gbps, latency


def _check_word_bits(word_bits: int | None) -> int | None:
    """``word_bits`` as a positive integer (or ``None``), or ``ValueError``."""
    if word_bits is None:
        return None
    try:
        bits = operator.index(word_bits)
    except TypeError:
        bits = 0
    if bits < 1:
        raise ValueError(f"word_bits must be a positive integer, got {word_bits!r}")
    return bits


def _per_relay(stats: LegStats, n: int) -> LegStats:
    """A leg mapped on whole-word sums, with its loads spread over ``n`` relays."""
    return replace(
        stats,
        max_link_words=stats.max_link_words / n,
        mean_link_words=stats.mean_link_words / n,
    )


@dataclass(frozen=True)
class PhaseCompletion:
    """Modelled completion of one charged phase on the topology.

    ``makespan_us = serialization_us + latency_us``; ``queueing_us`` is the
    slice of the serialization term caused by link-load imbalance (the
    bottleneck port's excess over the mean active link).
    """

    phase: str
    primitive: str
    kind: str
    rounds: int
    words: int
    legs: int
    makespan_us: float
    serialization_us: float
    latency_us: float
    queueing_us: float
    max_link_words: float

    @property
    def utilisation(self) -> float:
        """Share of the phase makespan the bottleneck link spends sending."""
        if self.makespan_us <= 0.0:
            return 0.0
        return self.serialization_us / self.makespan_us

    def to_dict(self) -> dict[str, Any]:
        return {
            "phase": self.phase,
            "primitive": self.primitive,
            "kind": self.kind,
            "rounds": int(self.rounds),
            "words": int(self.words),
            "legs": int(self.legs),
            "makespan_us": float(self.makespan_us),
            "serialization_us": float(self.serialization_us),
            "latency_us": float(self.latency_us),
            "queueing_us": float(self.queueing_us),
            "max_link_words": float(self.max_link_words),
            "utilisation": float(self.utilisation),
        }


@dataclass
class CompletionReport:
    """Per-phase makespans plus the run-level summary the CLI prints."""

    topology: str
    n: int
    link_gbps: float
    link_latency_us: float
    word_bits: int
    phases: list[PhaseCompletion] = field(default_factory=list)

    @property
    def makespan_us(self) -> float:
        """Total modelled wall-clock (phases are sequential rounds)."""
        return sum(p.makespan_us for p in self.phases)

    @property
    def serialization_us(self) -> float:
        return sum(p.serialization_us for p in self.phases)

    @property
    def latency_us(self) -> float:
        return sum(p.latency_us for p in self.phases)

    @property
    def queueing_us(self) -> float:
        return sum(p.queueing_us for p in self.phases)

    @property
    def max_link_utilisation(self) -> float:
        """Highest per-phase bottleneck-link utilisation."""
        return max((p.utilisation for p in self.phases), default=0.0)

    @property
    def queueing_share(self) -> float:
        """Imbalance share: queueing delay over total modelled makespan."""
        total = self.makespan_us
        return self.queueing_us / total if total > 0.0 else 0.0

    def to_dict(self) -> dict[str, Any]:
        return {
            "topology": self.topology,
            "n": int(self.n),
            "link_gbps": float(self.link_gbps),
            "link_latency_us": float(self.link_latency_us),
            "word_bits": int(self.word_bits),
            "makespan_us": float(self.makespan_us),
            "serialization_us": float(self.serialization_us),
            "latency_us": float(self.latency_us),
            "queueing_us": float(self.queueing_us),
            "max_link_utilisation": float(self.max_link_utilisation),
            "queueing_share": float(self.queueing_share),
            "phases": [p.to_dict() for p in self.phases],
        }

    def table(self) -> str:
        """Human-readable per-phase completion table."""
        lines = [
            f"completion on {self.topology} (n={self.n}, "
            f"{self.link_gbps:g} Gbit/s links, "
            f"{self.link_latency_us:g} us hop latency)",
            f"{'phase':40s} {'kind':9s} {'makespan_us':>12s} "
            f"{'serial_us':>10s} {'queue_us':>9s} {'util':>5s}",
        ]
        for p in self.phases:
            lines.append(
                f"{p.phase:40s} {p.kind:9s} {p.makespan_us:12.2f} "
                f"{p.serialization_us:10.2f} {p.queueing_us:9.2f} "
                f"{p.utilisation:5.2f}"
            )
        lines.append(
            f"{'TOTAL':40s} {'':9s} {self.makespan_us:12.2f} "
            f"{self.serialization_us:10.2f} {self.queueing_us:9.2f} "
            f"{self.max_link_utilisation:5.2f}"
        )
        return "\n".join(lines)


class TransportMeter:
    """Meter-stack observer pricing every charged phase on a topology.

    Attach with ``clique.attach_cost_model(...)`` (or
    ``EngineSession(cost_model=...)``); it never alters the abstract bill.
    ``link_gbps`` must be finite and positive, ``link_latency_us`` finite
    and non-negative, and ``word_bits`` a positive integer or ``None`` (the
    clique's word size once bound); anything else is refused with a
    ``ValueError`` naming the parameter.
    """

    #: Ask the stack for every charge's :class:`PhaseTraffic` matrix.
    needs_traffic = True

    def __init__(
        self,
        topology: Topology,
        *,
        link_gbps: float = 100.0,
        link_latency_us: float = 1.0,
        word_bits: int | None = None,
    ) -> None:
        self.link_gbps, self.link_latency_us = _check_link(link_gbps, link_latency_us)
        self.word_bits = _check_word_bits(word_bits)
        self.topology = topology
        self.completions: list[PhaseCompletion] = []

    def bind(self, n: int, word_bits: int) -> None:
        """Adopt the clique's geometry at attach time.

        Called by ``CongestedClique.attach_cost_model``; the topology must
        have been built for the same host count.
        """
        if self.topology.n != n:
            raise ValueError(
                f"topology models {self.topology.n} hosts but the clique "
                f"has {n}"
            )
        if self.word_bits is None:
            self.word_bits = word_bits

    # -- observer protocol -------------------------------------------------

    def observe(self, cost: PhaseCost, traffic: PhaseTraffic | None = None) -> None:
        if traffic is None:
            raise ValueError(
                f"phase {cost.phase!r}: charged without traffic; a transport "
                f"meter prices the pair-word matrix of every charge"
            )
        legs = self._legs(traffic)
        word_bits = self.word_bits if self.word_bits is not None else DEFAULT_WORD_BITS
        ser = queue = lat = 0.0
        max_link = 0.0
        for leg in legs:
            ser += _serialization_us(leg.max_link_words, word_bits, self.link_gbps)
            queue += _serialization_us(
                leg.max_link_words - leg.mean_link_words, word_bits, self.link_gbps
            )
            lat += leg.max_hops * self.link_latency_us
            max_link = max(max_link, leg.max_link_words)
        self.completions.append(
            PhaseCompletion(
                phase=cost.phase,
                primitive=cost.primitive,
                kind=traffic.kind,
                rounds=cost.rounds,
                words=cost.words,
                legs=len(legs),
                makespan_us=ser + lat,
                serialization_us=ser,
                latency_us=lat,
                queueing_us=queue,
                max_link_words=max_link,
            )
        )

    # -- legs --------------------------------------------------------------

    def _legs(self, traffic: PhaseTraffic) -> list[LegStats]:
        topo = self.topology
        pairs = traffic.pairs
        if traffic.kind != "route":
            return [topo.leg_stats(pairs)]
        # Lenzen's oblivious two-phase routing in closed form.  Leg 1 --
        # source u spreads its row sum evenly over the n relays; leg 2 --
        # every relay forwards 1/n of destination v's column sum.
        n = topo.n
        send = np.broadcast_to(pairs.sum(axis=1)[:, None], (n, n))
        recv = np.broadcast_to(pairs.sum(axis=0)[None, :], (n, n))
        return [
            _per_relay(topo.leg_stats(send), n),
            _per_relay(topo.leg_stats(recv), n),
        ]

    # -- reporting ---------------------------------------------------------

    @property
    def makespan_us(self) -> float:
        """Total modelled wall-clock across all observed phases."""
        return sum(p.makespan_us for p in self.completions)

    def reset(self) -> None:
        """Discard all observed completions."""
        self.completions.clear()

    def report(self) -> CompletionReport:
        """Snapshot the observed phases as a :class:`CompletionReport`."""
        word_bits = self.word_bits if self.word_bits is not None else DEFAULT_WORD_BITS
        return CompletionReport(
            topology=self.topology.name,
            n=self.topology.n,
            link_gbps=self.link_gbps,
            link_latency_us=self.link_latency_us,
            word_bits=word_bits,
            phases=list(self.completions),
        )


__all__ = [
    "DEFAULT_WORD_BITS",
    "PhaseCompletion",
    "CompletionReport",
    "TransportMeter",
]
