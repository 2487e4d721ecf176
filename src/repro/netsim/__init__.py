"""Network cost models under the congested-clique collectives.

The abstract simulator bills synchronous rounds; this package prices the
*same* exchanges on an explicit topology -- full-bisection, ring, or
k-ary fat-tree -- as a strictly observational second meter hanging off
the :class:`~repro.clique.accounting.MeterStack`.  Attaching a cost model
never changes values, rounds, words, or per-phase meters (property-tested
per topology); it only adds a :class:`CompletionReport` of per-phase
makespans, link utilisation, and queueing share.

Typical use::

    from repro.netsim import CostModelSpec

    clique = make_clique(n, "semiring", cost_model=CostModelSpec("ring"))
    ...  # run any workload
    print(clique.transport.report().table())

or via the CLI: ``--topology {full,ring,fat-tree:k}`` with
``--link-gbps`` / ``--link-latency-us`` on matmul / apsp / mst /
build-artifact.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.netsim.topology import (
    FatTree,
    FullBisection,
    LegStats,
    Ring,
    Topology,
    TOPOLOGY_KINDS,
    parse_topology,
)
from repro.netsim.transport import (
    DEFAULT_WORD_BITS,
    CompletionReport,
    PhaseCompletion,
    TransportMeter,
    _check_link,
)


@dataclass(frozen=True)
class CostModelSpec:
    """Declarative cost-model recipe, resolved against a clique's size.

    ``CongestedClique.attach_cost_model`` (and the ``cost_model=``
    keywords on ``make_clique`` / ``EngineSession`` / ``open_session``)
    accept either a ready observer or one of these specs; a spec is built
    into a :class:`TransportMeter` via :meth:`build` once the clique size
    is known.

    Attributes:
        topology: a ``--topology`` spec string -- ``full``, ``ring``, or
            ``fat-tree[:k]``.
        link_gbps: per-link bandwidth (Gbit/s), finite and positive.
        link_latency_us: per-hop propagation delay (microseconds), finite
            and non-negative.
    """

    topology: str = "full"
    link_gbps: float = 100.0
    link_latency_us: float = 1.0

    def __post_init__(self) -> None:
        _check_link(self.link_gbps, self.link_latency_us)

    def build(self, n: int, word_bits: int) -> TransportMeter:
        """Resolve the spec into a transport meter for an ``n``-clique."""
        return TransportMeter(
            parse_topology(self.topology, n),
            link_gbps=self.link_gbps,
            link_latency_us=self.link_latency_us,
            word_bits=word_bits,
        )


__all__ = [
    "LegStats",
    "Topology",
    "FullBisection",
    "Ring",
    "FatTree",
    "TOPOLOGY_KINDS",
    "parse_topology",
    "DEFAULT_WORD_BITS",
    "PhaseCompletion",
    "CompletionReport",
    "TransportMeter",
    "CostModelSpec",
]
