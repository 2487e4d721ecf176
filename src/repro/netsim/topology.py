"""Explicit network topologies under the congested-clique collectives.

The abstract model charges synchronous rounds; a real deployment of the
same collectives pays serialization and propagation on concrete links.
Each :class:`Topology` here maps one *leg* of traffic -- an ``(n, n)``
matrix of the words each ordered host pair ships, diagonal ignored --
onto its directed links and reports the bottleneck/mean link loads and
the hop count, which the :class:`~repro.netsim.transport.TransportMeter`
turns into alpha-beta completion times.  Every map reads row sums, column
sums or masked sums of the matrix, so a leg costs ``O(n^2)`` vectorised
work whatever its piece count.

Three families (the classic CCL-simulator trio):

* :class:`FullBisection` -- every ordered pair has a dedicated link
  (a non-blocking crossbar); the bottleneck is the heaviest pair, one hop.
* :class:`Ring` -- ``2n`` directed links (one clockwise, one
  counter-clockwise per adjacent pair); messages take the shorter
  direction and a link carries every message routed across it.
* :class:`FatTree` -- ``k`` pods of hosts under edge switches with a
  non-blocking core, 2:1 oversubscribed pod uplinks; intra-pod traffic is
  2 hops, inter-pod 4, and the bottleneck is a host port or a pod uplink.

For all-to-all-style collective traffic the bottleneck loads order as
full-bisection <= fat-tree <= ring (per-pair share <= per-host share <=
ring-cut share for ``n >= 16``), which is the makespan ordering the netsim
tests and the CI netsim smoke assert.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np


@dataclass(frozen=True)
class LegStats:
    """Link-level load summary of one traffic leg on a topology.

    Attributes:
        max_link_words: heaviest directed-link load, in words (may be
            fractional for balanced-spread relay legs).
        mean_link_words: mean load over the *active* links (the perfectly
            balanced FIFO drain time; the bottleneck's excess over it is
            the leg's queueing delay).
        active_links: number of links carrying any traffic.
        max_hops: longest path, in hops, among the leg's messages.
    """

    max_link_words: float
    mean_link_words: float
    active_links: int
    max_hops: int


_EMPTY = LegStats(0.0, 0.0, 0, 0)


def _summary(loads: np.ndarray, max_hops: int) -> LegStats:
    active = loads[loads > 0]
    if active.size == 0:
        return _EMPTY
    return LegStats(
        max_link_words=float(active.max()),
        mean_link_words=float(active.mean()),
        active_links=int(active.size),
        max_hops=int(max_hops),
    )


class Topology:
    """Interface: map one traffic leg to per-link loads.

    Subclasses set ``kind`` (the ``--topology`` spec family) and implement
    :meth:`leg_stats`.
    """

    kind = "abstract"

    def __init__(self, n: int) -> None:
        if n < 2:
            raise ValueError(f"a topology needs >= 2 hosts, got {n}")
        self.n = n

    @property
    def name(self) -> str:
        """Spec-style name (``full`` / ``ring`` / ``fat-tree:k``)."""
        return self.kind

    def leg_stats(self, pairs: np.ndarray) -> LegStats:
        """Link loads of one leg: ``pairs[u, v]`` words travel ``u -> v``.

        ``pairs`` is an ``(n, n)`` matrix of non-negative word counts (a
        read-only broadcast view is fine).  Its diagonal is ignored:
        self-addressed words traverse no wire.
        """
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(n={self.n})"


class FullBisection(Topology):
    """Non-blocking crossbar: one dedicated link per ordered host pair."""

    kind = "full"

    def leg_stats(self, pairs) -> LegStats:
        return _summary(pairs[~np.eye(self.n, dtype=bool)], max_hops=1)


@lru_cache(maxsize=8)
def _ring_geometry(n: int) -> tuple[np.ndarray, ...]:
    """Read-only per-pair masks of an ``n``-host ring, built once per ``n``.

    Returns ``(cw, cw_wrap, ccw, ccw_wrap, hops)``: ``cw[u, v]`` marks the
    pairs whose messages go clockwise (``0 < (v - u) mod n <= n/2``, ties
    clockwise) and ``ccw`` the rest of the off-diagonal pairs;
    ``cw_wrap`` / ``ccw_wrap`` mark those whose chain crosses the link
    between hosts ``n - 1`` and ``0``; ``hops`` is the shorter distance.
    Bool and narrow-integer masks keep the cache small.
    """
    u = np.arange(n)[:, None]
    v = np.arange(n)[None, :]
    d = (v - u) % n
    cw = (d > 0) & (d <= n - d)
    ccw = d > n - d
    hops = np.minimum(d, n - d).astype(np.min_scalar_type(n // 2))
    masks = (cw, cw & (v < u), ccw, ccw & (v > u), hops)
    for mask in masks:
        mask.flags.writeable = False
    return masks


class Ring(Topology):
    """Bidirectional ring: ``2n`` directed links, shortest-direction routing.

    A message from ``u`` to ``v`` takes the clockwise chain of links when
    ``(v - u) mod n <= n/2`` (ties clockwise) and the counter-clockwise
    chain otherwise, loading every link it crosses.  Link loads come from
    wrap-around difference arrays fed by the matrix's masked row and
    column sums, under direction masks cached per ``n`` -- ``O(n^2)``
    vectorised work per leg.
    """

    kind = "ring"

    def leg_stats(self, pairs) -> LegStats:
        cw, cw_wrap, ccw, ccw_wrap, hops = _ring_geometry(self.n)
        # Clockwise link i carries i -> i+1, and a clockwise message u -> v
        # loads links u .. v-1 (mod n): +w at u, -w at v in the difference
        # array, plus w on every link when its chain wraps past host n-1.
        # Counter-clockwise link j carries j+1 -> j, and a counter-clockwise
        # message u -> v loads links v .. u-1: the same chain with the
        # roles of rows and columns swapped.
        loads_cw = np.cumsum(
            pairs.sum(axis=1, where=cw) - pairs.sum(axis=0, where=cw)
        ) + pairs.sum(where=cw_wrap)
        loads_ccw = np.cumsum(
            pairs.sum(axis=0, where=ccw) - pairs.sum(axis=1, where=ccw)
        ) + pairs.sum(where=ccw_wrap)
        return _summary(
            np.concatenate([loads_cw, loads_ccw]),
            max_hops=int(hops.max(where=pairs > 0, initial=0)),
        )


class FatTree(Topology):
    """``k``-pod fat-tree with 2:1 oversubscribed pod uplinks.

    Hosts sit in ``k`` pods of ``ceil(n/k)`` under non-blocking edge
    switches; the core is non-blocking, but each pod owns only
    ``max(1, hosts_per_pod // 2)`` up/down links to it (the classic 2:1
    oversubscription), shared by ECMP-balanced inter-pod traffic.  Links
    modelled: per-host up/down ports and per-pod up/down core links.
    Intra-pod messages take 2 hops (host-edge-host), inter-pod 4
    (host-edge-core-edge-host).
    """

    kind = "fat-tree"

    def __init__(self, n: int, k: int = 4) -> None:
        super().__init__(n)
        if k < 1:
            raise ValueError(f"a fat-tree needs >= 1 pod, got k={k}")
        self.k = min(k, n)
        self.hosts_per_pod = math.ceil(n / self.k)
        self.uplinks = max(1, self.hosts_per_pod // 2)

    @property
    def name(self) -> str:
        return f"fat-tree:{self.k}"

    def leg_stats(self, pairs) -> LegStats:
        # Host ports carry the row and column sums off the diagonal; pod
        # uplinks carry the pod block sums off the block diagonal.
        self_words = pairs.diagonal()
        host_up = pairs.sum(axis=1) - self_words
        host_down = pairs.sum(axis=0) - self_words
        starts = np.arange(0, self.n, self.hosts_per_pod)
        blocks = np.add.reduceat(
            np.add.reduceat(pairs, starts, axis=0), starts, axis=1
        )
        intra = blocks.diagonal()
        pod_up = blocks.sum(axis=1) - intra
        pod_down = blocks.sum(axis=0) - intra
        # ECMP balance: each pod's aggregate spreads evenly over its
        # uplinks; every uplink is its own FIFO port.
        per_uplink = np.concatenate([pod_up, pod_down]) / self.uplinks
        loads = np.concatenate(
            [host_up, host_down, np.repeat(per_uplink, self.uplinks)]
        )
        return _summary(loads, max_hops=4 if bool(pod_up.any()) else 2)


#: ``--topology`` spec family -> class (specs: ``full``, ``ring``,
#: ``fat-tree[:k]``).
TOPOLOGY_KINDS = {
    FullBisection.kind: FullBisection,
    Ring.kind: Ring,
    FatTree.kind: FatTree,
}


def parse_topology(spec: str, n: int) -> Topology:
    """Build the topology named by a ``--topology`` spec for ``n`` hosts.

    Accepted specs: ``full`` (also ``full-bisection``), ``ring``,
    ``fat-tree`` (4 pods) or ``fat-tree:k``.
    """
    spec = spec.strip().lower()
    if spec in ("full", "full-bisection"):
        return FullBisection(n)
    if spec == "ring":
        return Ring(n)
    if spec == "fat-tree":
        return FatTree(n)
    if spec.startswith("fat-tree:"):
        try:
            k = int(spec.split(":", 1)[1])
        except ValueError:
            raise ValueError(f"bad fat-tree pod count in {spec!r}") from None
        return FatTree(n, k)
    raise ValueError(
        f"unknown topology {spec!r} (choose full, ring, or fat-tree[:k])"
    )


__all__ = [
    "LegStats",
    "Topology",
    "FullBisection",
    "Ring",
    "FatTree",
    "TOPOLOGY_KINDS",
    "parse_topology",
]
