"""Per-piece link loads, kept as the oracle for the pair-matrix ones.

:class:`~repro.netsim.topology.Topology` maps a traffic leg, given as the
``(n, n)`` matrix of words each ordered host pair ships, onto its links
with row, column, masked and pod-block sums.  The first implementation took
each leg as per-piece ``(src, dst, widths)`` vectors and scattered them onto
the links with ``np.add.at``, and the transport meter expanded each Lenzen
relay leg into all ``n * n`` such triples.  It lives on here, so the suite
can assert that the matrix maps price every leg the same:

* :func:`leg_stats` -- the triple-based link loads of the three topologies:
  :func:`off_wire` drops self-addressed and empty pieces, full bisection
  scatters pair loads, the ring scatters chain ends into wrap-around
  difference arrays (:func:`chain_loads`), and the fat-tree scatters host
  and pod-uplink loads;
* :func:`triples` -- a pair matrix as one triple per carrying pair;
* :class:`TripleTransportMeter` -- a transport meter that prices every leg
  through :func:`leg_stats`, with the relay legs expanded into triples as
  before.  The one change is the fix the matrix brought: a routed
  exchange's self-addressed pieces are off its legs, as they are off its
  round bill.
"""

from __future__ import annotations

import numpy as np

from repro.clique.accounting import PhaseTraffic
from repro.netsim import (
    FatTree,
    FullBisection,
    LegStats,
    Ring,
    Topology,
    TransportMeter,
)

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


def off_wire(
    src: np.ndarray, dst: np.ndarray, widths: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The pieces that cross a wire: not self-addressed, of positive width."""
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    widths = np.asarray(widths, dtype=np.float64)
    keep = (src != dst) & (widths > 0)
    return src[keep], dst[keep], widths[keep]


def chain_loads(
    n: int, start: np.ndarray, length: np.ndarray, widths: np.ndarray
) -> np.ndarray:
    """Loads on links ``start, start+1, ..., start+length-1 (mod n)``."""
    diff = np.zeros(2 * n, dtype=np.float64)
    np.add.at(diff, start, widths)
    np.subtract.at(diff, start + length, widths)
    pref = np.cumsum(diff)
    return pref[:n] + pref[n:]


def leg_stats(
    topology: Topology, src: np.ndarray, dst: np.ndarray, widths: np.ndarray
) -> LegStats:
    """Link loads of one leg of ``(src, dst, widths)`` pieces on ``topology``."""
    src, dst, widths = off_wire(src, dst, widths)
    if src.size == 0:
        return _EMPTY
    n = topology.n
    if isinstance(topology, FullBisection):
        loads = np.zeros(n * n, dtype=np.float64)
        np.add.at(loads, src * n + dst, widths)
        return _summary(loads, max_hops=1)
    if isinstance(topology, Ring):
        d_cw = (dst - src) % n
        cw = d_cw <= n - d_cw
        # Clockwise link i carries i -> i+1; counter-clockwise is the same
        # chain in mirrored coordinates, starting at the destination.
        loads_cw = chain_loads(n, src[cw], d_cw[cw], widths[cw])
        loads_ccw = chain_loads(n, dst[~cw], n - d_cw[~cw], widths[~cw])
        hops = np.minimum(d_cw, n - d_cw)
        return _summary(
            np.concatenate([loads_cw, loads_ccw]), max_hops=int(hops.max())
        )
    if isinstance(topology, FatTree):
        k = topology.k
        host_up = np.zeros(n, dtype=np.float64)
        host_down = np.zeros(n, dtype=np.float64)
        np.add.at(host_up, src, widths)
        np.add.at(host_down, dst, widths)
        src_pod = src // topology.hosts_per_pod
        dst_pod = dst // topology.hosts_per_pod
        inter = src_pod != dst_pod
        pod_up = np.zeros(k, dtype=np.float64)
        pod_down = np.zeros(k, dtype=np.float64)
        np.add.at(pod_up, src_pod[inter], widths[inter])
        np.add.at(pod_down, dst_pod[inter], widths[inter])
        per_uplink = np.concatenate([pod_up, pod_down]) / topology.uplinks
        loads = np.concatenate(
            [host_up, host_down, np.repeat(per_uplink, topology.uplinks)]
        )
        return _summary(loads, max_hops=4 if bool(inter.any()) else 2)
    raise TypeError(f"no reference link loads for {topology!r}")


def triples(pairs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(src, dst, widths)`` with one entry per ordered pair, diagonal included."""
    n = pairs.shape[0]
    nodes = np.arange(n, dtype=np.int64)
    return np.repeat(nodes, n), np.tile(nodes, n), np.asarray(pairs).reshape(-1)


class TripleTransportMeter(TransportMeter):
    """A transport meter whose legs are per-piece triples, as first built."""

    def _legs(self, traffic: PhaseTraffic) -> list[LegStats]:
        topo = self.topology
        n = topo.n
        src, dst, widths = triples(traffic.pairs)
        if traffic.kind != "route":
            return [leg_stats(topo, src, dst, widths)]
        weights = widths.astype(np.float64)
        send_per = np.bincount(src, weights=weights, minlength=n)
        recv_per = np.bincount(dst, weights=weights, minlength=n)
        # src and dst list every ordered pair: the relay legs' triples.
        return [
            leg_stats(topo, src, dst, np.repeat(send_per / n, n)),
            leg_stats(topo, src, dst, np.tile(recv_per / n, n)),
        ]
