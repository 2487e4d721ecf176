"""Alpha-beta transport cost model riding the meter stack.

:class:`TransportMeter` is a :class:`~repro.clique.accounting.CostObserver`
that declares ``needs_traffic``: alongside every charged
:class:`~repro.clique.accounting.PhaseCost` it receives the structured
:class:`~repro.clique.accounting.PhaseTraffic` record -- the actual
per-piece ``(src, dst, widths)`` vectors.  It expands each phase into one
or two traffic *legs*, maps every leg onto the attached
:class:`~repro.netsim.topology.Topology`, and prices it with the classic
alpha-beta model:

* serialization: the bottleneck link drains its FIFO at line rate --
  ``max_link_words * word_bits / link_gbps`` (in microseconds);
* propagation: ``max_hops * link_latency_us`` (the alpha term, paid once
  per leg since transfers on a leg are concurrent);
* queueing: the bottleneck port's excess over a perfectly balanced drain,
  ``(max_link - mean_link) * word_bits / link_gbps`` -- already contained
  in the serialization term, reported separately as the load-imbalance
  share of the makespan.

Leg expansion mirrors how the collectives actually ship:

* ``broadcast``: one leg, node ``u`` sends its ``widths[u]`` words to all
  ``n - 1`` peers.
* ``send`` (direct ``send_array``): one leg of the literal pieces.
* ``route``: the Lenzen routing closed form, the same one the round bill
  uses -- two balanced legs (sources spread their load evenly over all
  ``n`` relays, relays forward each destination's share), with fractional
  per-link loads.

The meter is **purely observational**: it never touches values, rounds,
words, or any other observer's bill (property-tested per topology).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable

import numpy as np

from repro.clique.accounting import PhaseCost, PhaseTraffic
from repro.netsim.topology import LegStats, Topology

#: Default word width (bits) when no clique has bound one.
DEFAULT_WORD_BITS = 64


def _serialization_us(words: float, word_bits: int, link_gbps: float) -> float:
    # words * word_bits = bits; / (Gbit/s * 1000) = microseconds.
    return words * word_bits / (link_gbps * 1000.0)


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
    """

    #: Ask the stack for :class:`PhaseTraffic` routing metadata.
    needs_traffic = True

    def __init__(
        self,
        topology: Topology,
        *,
        link_gbps: float = 100.0,
        link_latency_us: float = 1.0,
        word_bits: int | None = None,
    ) -> None:
        if link_gbps <= 0.0:
            raise ValueError(f"link bandwidth must be positive, got {link_gbps}")
        if link_latency_us < 0.0:
            raise ValueError(f"negative link latency: {link_latency_us}")
        self.topology = topology
        self.link_gbps = float(link_gbps)
        self.link_latency_us = float(link_latency_us)
        self.word_bits = word_bits
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
        legs = list(self._legs(cost, traffic))
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
                kind=traffic.kind if traffic is not None else "uniform",
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

    # -- leg expansion -----------------------------------------------------

    def _legs(
        self, cost: PhaseCost, traffic: PhaseTraffic | None
    ) -> Iterable[LegStats]:
        topo = self.topology
        n = topo.n
        full = np.arange(n, dtype=np.int64)
        if traffic is None:
            # Charged without routing metadata (e.g. a hand-billed abstract
            # cost): conservatively model a uniform all-to-all of the
            # phase's total words.
            if cost.words <= 0:
                return []
            per_pair = cost.words / float(n * (n - 1))
            src = np.repeat(full, n)
            dst = np.tile(full, n)
            w = np.full(n * n, per_pair)
            return [topo.leg_stats(src, dst, w)]
        if traffic.kind == "broadcast":
            src = np.repeat(full, n)
            dst = np.tile(full, n)
            w = np.repeat(np.asarray(traffic.widths, dtype=np.float64), n)
            return [topo.leg_stats(src, dst, w)]
        if not traffic.relayed:
            return [topo.leg_stats(traffic.src, traffic.dst, traffic.widths)]
        # Lenzen's oblivious two-phase routing in closed form.
        # Leg 1 -- every source spreads its outgoing load evenly over all
        # n relays; leg 2 -- every relay forwards each destination's share.
        src = np.asarray(traffic.src, dtype=np.int64)
        dst = np.asarray(traffic.dst, dtype=np.int64)
        widths = np.asarray(traffic.widths, dtype=np.float64)
        send_per = np.bincount(src, weights=widths, minlength=n)
        recv_per = np.bincount(dst, weights=widths, minlength=n)
        leg1 = topo.leg_stats(
            np.repeat(full, n), np.tile(full, n), np.repeat(send_per / n, n)
        )
        leg2 = topo.leg_stats(
            np.repeat(full, n), np.tile(full, n), np.tile(recv_per / n, n)
        )
        return [leg1, leg2]

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
