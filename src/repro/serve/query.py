"""Zero-engine-work queries over a memory-mapped closure artifact.

Point queries touch O(1) memmap entries (``dist``) or O(path length)
entries (``path``, witness-chasing through the routing table).  The perf
headline is the **batch** interface: ``dist_batch`` answers thousands of
pairs as one fancy-index gather, and ``path_batch`` chases all live
queries level-synchronously -- one gather per path *level*, not per
(query, hop) pair -- so serving cost is a handful of numpy ops instead of
thousands of Python round trips.
"""

from __future__ import annotations

import numpy as np

from repro.constants import INF
from repro.serve.artifact import ClosureArtifact


class RoutingCycleError(RuntimeError):
    """Witness chasing exceeded ``n`` hops: the routing table is corrupt.

    A valid next-hop table strictly decreases the remaining distance each
    hop, so no shortest path has more than ``n - 1`` edges; exceeding that,
    or stepping onto a hop outside ``[0, n)`` mid-chase (a ``-1`` entry, a
    corrupt node id), means the artifact's blocks are inconsistent, and the
    guard turns a would-be infinite loop or bad index into a loud error.
    """


class QueryEngine:
    """Answers distance/path/eccentricity queries from an artifact.

    Holds only the artifact's memmap views; construction does no work, and
    no query ever touches the engine.
    """

    def __init__(self, artifact: ClosureArtifact) -> None:
        self.artifact = artifact
        self.n = artifact.n
        self._dist = artifact.dist
        self._hops = artifact.next_hop

    # ------------------------------------------------------------------ #
    # Point queries
    # ------------------------------------------------------------------ #

    def _check_node(self, u: int) -> int:
        u = int(u)
        if not 0 <= u < self.n:
            raise ValueError(f"node {u} out of range [0, {self.n})")
        return u

    def dist(self, u: int, v: int) -> int:
        """Shortest-path distance ``u -> v`` (``INF`` if unreachable)."""
        u, v = self._check_node(u), self._check_node(v)
        return int(self._dist[u, v])

    def path(self, u: int, v: int) -> list[int]:
        """One shortest ``u -> v`` path as a node list, by witness chasing.

        ``[u]`` when ``u == v``; the empty list when ``v`` is unreachable
        (INF distance is an answer, not an exception).  O(path length)
        memmap gathers, cycle-guarded.
        """
        u, v = self._check_node(u), self._check_node(v)
        if u == v:
            return [u]
        if int(self._dist[u, v]) >= INF:
            return []
        nodes = [u]
        cur = u
        for _ in range(self.n):
            nxt = int(self._hops[cur, v])
            if not 0 <= nxt < self.n:
                raise RoutingCycleError(
                    f"routing table dead-ends at {cur} while chasing "
                    f"{u} -> {v}: hop {nxt} is outside [0, {self.n})"
                )
            nodes.append(nxt)
            if nxt == v:
                return nodes
            cur = nxt
        raise RoutingCycleError(
            f"witness chase {u} -> {v} exceeded {self.n} hops"
        )

    def row(self, u: int) -> np.ndarray:
        """All distances from ``u`` (a fresh array, not the memmap)."""
        return np.array(self._dist[self._check_node(u)])

    def ecc(self, u: int) -> int:
        """Eccentricity of ``u``: max distance to any node (INF if cut off)."""
        return int(self._dist[self._check_node(u)].max())

    # ------------------------------------------------------------------ #
    # Batched queries -- the hot path
    # ------------------------------------------------------------------ #

    def _check_batch(
        self, us: np.ndarray, vs: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        us = np.asarray(us, dtype=np.int64)
        vs = np.asarray(vs, dtype=np.int64)
        if us.shape != vs.shape or us.ndim != 1:
            raise ValueError(
                f"batch endpoints must be equal-length vectors, got "
                f"{us.shape} and {vs.shape}"
            )
        for arr in (us, vs):
            if arr.size and (arr.min() < 0 or arr.max() >= self.n):
                raise ValueError(f"batch node id out of range [0, {self.n})")
        return us, vs

    def dist_batch(self, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
        """Distances for all pairs ``(us[i], vs[i])`` as one gather."""
        us, vs = self._check_batch(us, vs)
        return np.asarray(self._dist[us, vs])

    def path_batch(self, us: np.ndarray, vs: np.ndarray) -> list[list[int]]:
        """Shortest paths for all pairs, chased level-synchronously.

        All still-live queries advance one hop per iteration through a
        single fancy-index gather; a query drops out when it reaches its
        target.  Unreachable pairs return empty lists, ``u == v`` returns
        ``[u]``, and the same cycle guard as :meth:`path` applies to the
        whole batch.
        """
        us, vs = self._check_batch(us, vs)
        dists = self._dist[us, vs]
        paths: list[list[int]] = []
        for u, v, d in zip(us, vs, dists):
            if u == v:
                paths.append([int(u)])
            elif d >= INF:
                paths.append([])
            else:
                paths.append([int(u)])
        cur = us.copy()
        live = np.nonzero((us != vs) & (dists < INF))[0]
        for _ in range(self.n):
            if not live.size:
                return paths
            hops = np.asarray(self._hops[cur[live], vs[live]])
            outside = (hops < 0) | (hops >= self.n)
            if outside.any():
                at = int(np.argmax(outside))
                bad = int(live[at])
                raise RoutingCycleError(
                    f"routing table dead-ends while chasing "
                    f"{int(us[bad])} -> {int(vs[bad])}: hop {int(hops[at])} "
                    f"is outside [0, {self.n})"
                )
            for idx, hop in zip(live, hops):
                paths[idx].append(int(hop))
            cur[live] = hops
            live = live[hops != vs[live]]
        raise RoutingCycleError(
            f"batched witness chase exceeded {self.n} hops"
        )

    def ecc_batch(self, us: np.ndarray) -> np.ndarray:
        """Eccentricities for all ``us`` as one row gather + reduce."""
        us = np.asarray(us, dtype=np.int64)
        if us.size and (us.min() < 0 or us.max() >= self.n):
            raise ValueError(f"batch node id out of range [0, {self.n})")
        return np.asarray(self._dist[us].max(axis=1))


__all__ = ["QueryEngine", "RoutingCycleError"]
