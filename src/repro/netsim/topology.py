"""Explicit network topologies under the congested-clique collectives.

The abstract model charges synchronous rounds; a real deployment of the
same collectives pays serialization and propagation on concrete links.
Each :class:`Topology` here maps one *leg* of traffic -- explicit
``(src, dst, words)`` piece vectors -- onto its directed links and reports
the bottleneck/mean link loads and the hop count, which the
:class:`~repro.netsim.transport.TransportMeter` turns into alpha-beta
completion times.

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

    def leg_stats(
        self, src: np.ndarray, dst: np.ndarray, widths: np.ndarray
    ) -> LegStats:
        """Link loads of one leg of ``(src, dst, widths)`` messages.

        Self-addressed pieces (``src == dst``) traverse no wire and are
        ignored; ``widths`` may be fractional (balanced relay spreading).
        """
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(n={self.n})"

    @staticmethod
    def _off_wire(
        src: np.ndarray, dst: np.ndarray, widths: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        widths = np.asarray(widths, dtype=np.float64)
        keep = (src != dst) & (widths > 0)
        return src[keep], dst[keep], widths[keep]


class FullBisection(Topology):
    """Non-blocking crossbar: one dedicated link per ordered host pair."""

    kind = "full"

    def leg_stats(self, src, dst, widths) -> LegStats:
        src, dst, widths = self._off_wire(src, dst, widths)
        if src.size == 0:
            return _EMPTY
        n = self.n
        loads = np.zeros(n * n, dtype=np.float64)
        np.add.at(loads, src * n + dst, widths)
        return _summary(loads, max_hops=1)


class Ring(Topology):
    """Bidirectional ring: ``2n`` directed links, shortest-direction routing.

    A message from ``u`` to ``v`` takes the clockwise chain of links when
    ``(v - u) mod n <= n/2`` (ties clockwise) and the counter-clockwise
    chain otherwise, loading every link it crosses.  Link loads are
    computed with wrap-around difference arrays -- ``O(P + n)`` per leg.
    """

    kind = "ring"

    @staticmethod
    def _chain_loads(n: int, start: np.ndarray, length: np.ndarray,
                     widths: np.ndarray) -> np.ndarray:
        """Loads on links ``start, start+1, ..., start+length-1 (mod n)``."""
        diff = np.zeros(2 * n, dtype=np.float64)
        np.add.at(diff, start, widths)
        np.subtract.at(diff, start + length, widths)
        pref = np.cumsum(diff)
        return pref[:n] + pref[n:]

    def leg_stats(self, src, dst, widths) -> LegStats:
        src, dst, widths = self._off_wire(src, dst, widths)
        if src.size == 0:
            return _EMPTY
        n = self.n
        d_cw = (dst - src) % n
        cw = d_cw <= n - d_cw
        # Clockwise link i carries i -> i+1; a cw message from u of hop
        # count d loads links u .. u+d-1.  Counter-clockwise is the same
        # chain in mirrored coordinates (link j carries j+1 -> j, loaded
        # starting at dst when walking the mirror image).
        loads_cw = self._chain_loads(n, src[cw], d_cw[cw], widths[cw])
        loads_ccw = self._chain_loads(
            n, dst[~cw], (n - d_cw[~cw]), widths[~cw]
        )
        hops = np.minimum(d_cw, n - d_cw)
        return _summary(
            np.concatenate([loads_cw, loads_ccw]), max_hops=int(hops.max())
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

    def _pod(self, hosts: np.ndarray) -> np.ndarray:
        return hosts // self.hosts_per_pod

    def leg_stats(self, src, dst, widths) -> LegStats:
        src, dst, widths = self._off_wire(src, dst, widths)
        if src.size == 0:
            return _EMPTY
        n, k = self.n, self.k
        host_up = np.zeros(n, dtype=np.float64)
        host_down = np.zeros(n, dtype=np.float64)
        np.add.at(host_up, src, widths)
        np.add.at(host_down, dst, widths)
        src_pod = self._pod(src)
        dst_pod = self._pod(dst)
        inter = src_pod != dst_pod
        pod_up = np.zeros(k, dtype=np.float64)
        pod_down = np.zeros(k, dtype=np.float64)
        np.add.at(pod_up, src_pod[inter], widths[inter])
        np.add.at(pod_down, dst_pod[inter], widths[inter])
        # ECMP balance: each pod's aggregate spreads evenly over its
        # uplinks; every uplink is its own FIFO port.
        per_uplink = np.concatenate([pod_up, pod_down]) / self.uplinks
        loads = np.concatenate(
            [host_up, host_down, np.repeat(per_uplink, self.uplinks)]
        )
        return _summary(loads, max_hops=4 if bool(inter.any()) else 2)


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
