"""Constant-round 4-cycle detection (paper Theorem 4, Lemmas 12-13).

A 4-cycle exists iff some pair ``x != z`` has two distinct 2-walks
``x - y - z``.  The algorithm:

1. Broadcast degrees (1 round).  Node ``x`` computes
   ``|P(x,*,*)| = sum_{y in N(x)} deg(y)``; if that reaches ``2n - 1`` the
   pigeonhole already certifies a 4-cycle -- stop.
2. Otherwise the total 2-walk volume is below ``2 n^2``, so the walks can be
   spread evenly: Lemma 12 packs disjoint tiles ``A(y) x B(y)`` of side
   ``f(y) >= deg(y)/8`` into a ``k x k`` square (all sides are powers of two
   and the total area fits, so a buddy allocator succeeds); every node can
   compute the packing locally from the public degree sequence.
3. Node ``y`` splits ``N(y)`` into chunks ``NA(y, a)`` / ``NB(y, b)`` of at
   most 8 ids, ships ``NA(y, a)`` to each ``a in A(y)`` (direct, <= 8 words
   per pair), and each ``a`` forwards to every ``b in B(y)`` (tiles are
   disjoint, so again <= 9 words per ordered pair): O(1) rounds.
4. Node ``b`` now knows ``N(y)`` for every ``y`` with ``b in B(y)`` and
   forms its walk bundle ``W(b)`` (Lemma 13: ``|W(b)| = O(n)``); the walks
   are routed to their left endpoints (load ``O(n)`` per node -> O(1)
   rounds), where the duplicate-pair check is local.

Total: O(1) rounds regardless of ``n`` -- the flattest row of Table 1.

Implementation note: the three exchanges (chunk shipping, chunk forwarding,
walk-bundle routing) run on the simulator's array collectives: chunks travel
as ``-1``-padded ``(p, 8)`` id batches through
:meth:`~repro.clique.model.CongestedClique.send_array` and walks as
``(p, 2)`` batches through
:meth:`~repro.clique.model.CongestedClique.route_array`, each charged its
honest unpadded width explicitly (a chunk of ``l`` ids costs ``l`` words,
plus one header word when forwarded).  The per-payload formulation the walk
phases were ported from lives on as a test reference
(``tests/tuple_reference.py``), which pins every phase's charge to it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.clique.model import CongestedClique, ScheduleMode
from repro.graphs.graphs import Graph
from repro.runtime import RunResult, or_broadcast

_CHUNK = 8
_PAD = -1  # chunk-slot filler in the padded array pieces (node ids are >= 0)


@dataclass(frozen=True)
class Tile:
    """A square tile ``A(y) x B(y)`` allocated to node ``y`` (Lemma 12)."""

    y: int
    row_start: int
    col_start: int
    side: int

    @property
    def rows(self) -> range:
        return range(self.row_start, self.row_start + self.side)

    @property
    def cols(self) -> range:
        return range(self.col_start, self.col_start + self.side)


def tile_side(degree: int) -> int:
    """Lemma 12 side ``f(y)``: ``deg/4`` rounded down to a power of two.

    Degrees below 4 get side 1 (they still satisfy ``f >= deg/8`` and the
    <=8-element chunk bound); isolated nodes get no tile.
    """
    if degree <= 0:
        return 0
    if degree < 4:
        return 1
    return 1 << ((degree // 4).bit_length() - 1)


def build_tiling(degrees: np.ndarray, n: int) -> list[Tile]:
    """Pack the tiles ``f(y) x f(y)`` disjointly into a ``k x k`` square.

    ``k`` is ``n`` rounded down to a power of two.  A buddy allocator over
    power-of-two squares: since the total area is at most ``n + n^2/8 <
    k^2`` (Lemma 12's counting argument plus the side-1 tiles), allocating
    largest-first never fails.  Deterministic, so every node computes the
    identical packing from the broadcast degree sequence.
    """
    k = 1 << (max(1, int(n)).bit_length() - 1)
    free: dict[int, list[tuple[int, int]]] = {k: [(0, 0)]}

    def allocate(side: int) -> tuple[int, int]:
        size = side
        while size <= k and not free.get(size):
            size *= 2
        if size > k:
            raise AssertionError(
                "Lemma 12 packing overflow -- degree volume bound violated"
            )
        while size > side:
            r, c = free[size].pop()
            half = size // 2
            free.setdefault(half, []).extend(
                [(r, c), (r, c + half), (r + half, c), (r + half, c + half)]
            )
            size = half
        return free[side].pop()

    order = sorted(
        (y for y in range(n) if degrees[y] > 0),
        key=lambda y: -tile_side(int(degrees[y])),
    )
    tiles = []
    for y in order:
        side = tile_side(int(degrees[y]))
        r, c = allocate(side)
        tiles.append(Tile(y=y, row_start=r, col_start=c, side=side))
    tiles.sort(key=lambda tile: tile.y)
    return tiles


def _chunks(items: np.ndarray, parts: int) -> list[np.ndarray]:
    """Split ``items`` into ``parts`` chunks of size <= ceil(len/parts)."""
    return [chunk for chunk in np.array_split(items, parts)]


def _walk_check_array(
    clique: CongestedClique,
    graph: Graph,
    tiles: list[Tile],
    tile_of: dict[int, Tile],
) -> list[bool]:
    """Steps A/B + walk-bundle routing; per node, does it close a 4-cycle?"""
    cn = clique.n
    empty_d = np.zeros(0, dtype=np.int64)
    empty_b = np.zeros((0, _CHUNK), dtype=np.int64)

    # Step A: y ships NA(y, a) to each a in A(y), as -1-padded (side, 8)
    # chunk pieces charged at the honest chunk length.
    dests = [empty_d] * cn
    blocks = [empty_b] * cn
    widths = [empty_d] * cn
    for tile in tiles:
        y = tile.y
        na = _chunks(graph.neighbors(y), tile.side)
        piece = np.full((tile.side, _CHUNK), _PAD, dtype=np.int64)
        w = np.empty(tile.side, dtype=np.int64)
        for idx, chunk in enumerate(na):
            piece[idx, : len(chunk)] = chunk
            w[idx] = max(1, len(chunk))
        dests[y] = np.arange(tile.row_start, tile.row_start + tile.side)
        blocks[y] = piece
        widths[y] = w
    inboxes = clique.send_array(
        dests, blocks, widths=widths, phase="c4/stepA", expect_max_pair=_CHUNK
    )

    # Step B: a forwards NA(y, a) to every b in B(y), tagged with y (the
    # sender is no longer y itself).  Tile disjointness guarantees <= one
    # chunk per ordered pair (a, b).
    dests = [empty_d] * cn
    blocks = [empty_b] * cn
    widths = [empty_d] * cn
    tags: list[np.ndarray] = [empty_d] * cn
    for a_node in range(cn):
        inbox = inboxes[a_node]
        if inbox.sources.shape[0] == 0:
            continue
        cols = [
            np.arange(
                tile_of[int(y)].col_start,
                tile_of[int(y)].col_start + tile_of[int(y)].side,
            )
            for y in inbox.sources
        ]
        sides = np.array([c.shape[0] for c in cols], dtype=np.int64)
        chunk_lens = (inbox.blocks != _PAD).sum(axis=1)
        dests[a_node] = np.concatenate(cols)
        blocks[a_node] = np.repeat(inbox.blocks, sides, axis=0)
        widths[a_node] = np.repeat(np.maximum(1, chunk_lens + 1), sides)
        tags[a_node] = np.repeat(inbox.sources, sides)
    inboxes = clique.send_array(
        dests,
        blocks,
        widths=widths,
        tags=tags,
        phase="c4/stepB",
        expect_max_pair=_CHUNK + 1,
    )

    # Node b reassembles N(y) per tile column and forms its walk bundle
    # W(b) = union over y of N(y) x {y} x NB(y, b).  Chunks arrive in
    # ascending forwarder (= chunk index) order, so every b reassembles the
    # identical N(y) ordering and the NB partition is consistent.
    walk_x: list[np.ndarray] = [empty_d] * cn
    walk_yz: list[np.ndarray] = [np.zeros((0, 2), dtype=np.int64)] * cn
    for b_node in range(cn):
        inbox = inboxes[b_node]
        if inbox.sources.shape[0] == 0:
            continue
        per_y: dict[int, list[np.ndarray]] = {}
        for idx in range(inbox.tags.shape[0]):
            chunk = inbox.blocks[idx]
            per_y.setdefault(int(inbox.tags[idx]), []).append(chunk[chunk != _PAD])
        xs: list[np.ndarray] = []
        yzs: list[np.ndarray] = []
        for y, pieces in per_y.items():
            neigh = np.concatenate(pieces)
            tile = tile_of[y]
            z_part = _chunks(neigh, tile.side)[b_node - tile.col_start]
            if neigh.size == 0 or z_part.size == 0:
                continue
            xs.append(np.repeat(neigh, z_part.size))
            yz = np.empty((neigh.size * z_part.size, 2), dtype=np.int64)
            yz[:, 0] = y
            yz[:, 1] = np.tile(z_part, neigh.size)
            yzs.append(yz)
        if xs:
            walk_x[b_node] = np.concatenate(xs)
            walk_yz[b_node] = np.concatenate(yzs)

    # Route every 2-walk (x, y, z) to its left endpoint x; per Lemma 13 the
    # send load is O(n) and (post-pigeonhole) the receive load is < 2n.
    ones = [np.ones(walk_x[b].shape[0], dtype=np.int64) for b in range(cn)]
    inboxes = clique.route_array(
        walk_x,
        walk_yz,
        widths=ones,
        phase="c4/gather-walks",
        expect_max_load=64 * cn,
    )
    found = []
    for x in range(cn):
        z_arr = inboxes[x].blocks[:, 1] if inboxes[x].blocks.shape[0] else empty_d
        z_arr = z_arr[z_arr != x]
        found.append(bool(np.unique(z_arr).shape[0] < z_arr.shape[0]))
    return found


def detect_four_cycles(
    graph: Graph,
    *,
    clique: CongestedClique | None = None,
    mode: ScheduleMode = ScheduleMode.FAST,
) -> RunResult:
    """Theorem 4: 4-cycle existence in O(1) rounds."""
    if graph.directed:
        raise ValueError("Theorem 4 is stated for undirected graphs")
    n = graph.n
    clique = clique or CongestedClique(max(2, n), mode=mode)
    if clique.n < n:
        raise ValueError("clique too small for the graph")
    a = graph.adjacency
    degrees_local = [int(a[v].sum()) if v < n else 0 for v in range(clique.n)]

    # Phase 1: degree broadcast + pigeonhole test.
    received = clique.broadcast(degrees_local, words=1, phase="c4/degrees")
    degrees = np.array(received[0], dtype=np.int64)
    walk_volume = [
        int(degrees[graph.neighbors(x)].sum()) if x < n else 0
        for x in range(clique.n)
    ]
    overloaded = [vol >= 2 * n - 1 for vol in walk_volume]
    if or_broadcast(clique, overloaded, phase="c4/pigeonhole"):
        return RunResult(
            value=True,
            rounds=clique.rounds,
            clique_size=clique.n,
            meter=clique.meter,
            extras={"phase": "pigeonhole"},
        )

    # Phase 2: Lemma 12 tiling (local, from the public degree sequence).
    tiles = build_tiling(degrees[:n], n)
    tile_of = {tile.y: tile for tile in tiles}

    found = _walk_check_array(clique, graph, tiles, tile_of)
    verdict = or_broadcast(clique, found, phase="c4/verdict")
    return RunResult(
        value=verdict,
        rounds=clique.rounds,
        clique_size=clique.n,
        meter=clique.meter,
        extras={"phase": "tiling", "tiles": len(tiles)},
    )


__all__ = ["detect_four_cycles", "build_tiling", "tile_side", "Tile"]
