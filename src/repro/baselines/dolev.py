"""Prior-work baselines: Dolev, Lenzen & Peled [24] ("Tri, tri again").

The combinatorial algorithms the paper's Table 1 compares against:

* **Triangle counting in ``O(n^{1/3})`` rounds** -- partition ``V`` into
  ``q ~ n^{1/3}`` groups; each of the ``q^3`` ordered group triples is
  assigned to a node, which learns the three bipartite edge sets between its
  groups (``O(n^{4/3})`` words per node, routed in ``O(n^{1/3})`` rounds)
  and counts the triangles ``a < b < c`` falling in its triple.  Because the
  groups are contiguous ranges, each triangle is counted by exactly one
  triple.

* **k-node subgraph detection in ``O(n^{1-2/k})`` rounds**, instantiated at
  ``k = 4`` for 4-cycle detection (the ``O(n^{1/2})`` Table 1 entry):
  partition into ``r ~ n^{1/4}`` groups, assign the ``r^4`` group 4-tuples
  to nodes, ship the four cyclically-adjacent bipartite edge sets
  (``O(n^{3/2})`` words per node -> ``O(n^{1/2})`` rounds), and test each
  tuple locally with two rectangular co-degree products.

Both ship their edge sets in one routed exchange
(:func:`_distribute_slices`), so they run through the same collective, and
on a fault-layer clique through the same fault seams, as every other
algorithm.  These baselines give the benchmark harness its "prior work"
round counts, so the crossovers in Table 1 are measured rather than
asserted.
"""

from __future__ import annotations

import numpy as np

from repro.clique.messages import block_widths
from repro.clique.model import CongestedClique, ScheduleMode
from repro.graphs.graphs import Graph
from repro.runtime import RunResult, or_broadcast, sum_broadcast


def _contiguous_groups(n: int, count: int) -> list[np.ndarray]:
    """Split ``0..n-1`` into ``count`` contiguous, nearly equal groups."""
    return [np.asarray(g, dtype=np.int64) for g in np.array_split(np.arange(n), count)]


def _distribute_slices(
    clique: CongestedClique,
    adjacency: np.ndarray,
    groups: list[np.ndarray],
    tuple_pairs: list[tuple[tuple[int, int], ...]],
    phase: str,
) -> list[list[np.ndarray]]:
    """Ship every group tuple's bipartite edge sets to its owner, in one route.

    Tuple ``t`` is owned by node ``t % n`` (round-robin: node ``v`` handles
    tuples ``v, v + n, ...``).  For each pair ``(ga, gb)`` in
    ``tuple_pairs[t]``, every row owner ``u in V_ga`` ships its slice
    ``A[u, V_gb]``: zero-padded to the largest group, charged
    ``max(1, words_for_array(slice))`` on the unpadded slice, and tagged
    with its ``(tuple, pair, row)`` slot.

    Returns ``blocks`` with ``blocks[t][p]`` the ``(|V_ga|, |V_gb|)`` block
    of pair ``p`` of tuple ``t``, reassembled from the slots the tuple's
    owner received.
    """
    n = clique.n
    g_max = max(len(g) for g in groups)
    src, dst, widths, pieces = [], [], [], []
    for t_idx, pairs in enumerate(tuple_pairs):
        for ga, gb in pairs:
            block = adjacency[np.ix_(groups[ga], groups[gb])]
            piece = np.zeros((block.shape[0], g_max), dtype=np.int64)
            piece[:, : block.shape[1]] = block
            src.append(groups[ga])
            dst.append(np.full(block.shape[0], t_idx % n, dtype=np.int64))
            widths.append(np.maximum(1, block_widths(block, clique.word_bits)))
            pieces.append(piece)
    src_all = np.concatenate(src)
    pieces_all = np.concatenate(pieces)
    # Slot s is the s-th slice in (tuple, pair, row) order; grouping the
    # slices by sender keeps that order within each node's batch.
    slot = np.argsort(src_all, kind="stable")
    cuts = np.cumsum(np.bincount(src_all, minlength=n))[:-1]
    inboxes = clique.route_array(
        np.split(np.concatenate(dst)[slot], cuts),
        np.split(pieces_all[slot], cuts),
        widths=np.split(np.concatenate(widths)[slot], cuts),
        tags=np.split(slot, cuts),
        phase=phase,
        flat=True,
    )
    received = np.empty_like(pieces_all)
    received[inboxes.tags] = inboxes.blocks
    blocks: list[list[np.ndarray]] = []
    start = 0
    for pairs in tuple_pairs:
        blocks.append([])
        for ga, gb in pairs:
            stop = start + len(groups[ga])
            blocks[-1].append(received[start:stop, : len(groups[gb])])
            start = stop
    return blocks


def dolev_triangle_count(
    graph: Graph,
    *,
    clique: CongestedClique | None = None,
    mode: ScheduleMode = ScheduleMode.FAST,
) -> RunResult:
    """Dolev et al. deterministic triangle counting, ``O(n^{1/3})`` rounds."""
    if graph.directed:
        raise ValueError("the Dolev baseline is implemented for undirected graphs")
    n = graph.n
    clique = clique or CongestedClique(max(2, n), mode=mode)
    q = max(1, round(n ** (1.0 / 3.0)))
    groups = _contiguous_groups(n, q)
    triples = [(i, j, k) for i in range(q) for j in range(q) for k in range(q)]
    # The owner of triple (i, j, k) learns the three bipartite edge sets.
    slices = _distribute_slices(
        clique,
        graph.adjacency,
        groups,
        [((i, j), (j, k), (i, k)) for i, j, k in triples],
        "dolev-tri/distribute",
    )
    local_counts = [0] * clique.n
    for t_idx, (i, j, k) in enumerate(triples):
        ab, bc, ac = slices[t_idx]
        local_counts[t_idx % clique.n] += _count_ordered_triangles(
            groups[i], groups[j], groups[k], ab, bc, ac
        )
    total = sum_broadcast(clique, local_counts, phase="dolev-tri/sum", words=3)
    return RunResult(
        value=total,
        rounds=clique.rounds,
        clique_size=clique.n,
        meter=clique.meter,
        extras={"groups": q},
    )


def _count_ordered_triangles(
    ga: np.ndarray,
    gb: np.ndarray,
    gc: np.ndarray,
    ab: np.ndarray,
    bc: np.ndarray,
    ac: np.ndarray,
) -> int:
    """Triangles ``a < b < c`` with ``a in ga, b in gb, c in gc``.

    ``ab[x, y] = A[ga[x], gb[y]]`` etc.  Vectorised over the group blocks
    with explicit ordering masks, so overlapping groups never double count.
    """
    lt_ab = ga[:, None] < gb[None, :]
    lt_bc = gb[:, None] < gc[None, :]
    total = 0
    for x in range(len(ga)):
        row_ab = ab[x] * lt_ab[x]
        if not row_ab.any():
            continue
        row_ac = ac[x]
        # For each b adjacent to a (with a < b), count c > b adjacent to both.
        valid_b = np.nonzero(row_ab)[0]
        for y in valid_b:
            total += int(np.sum(bc[y] * lt_bc[y] * row_ac))
    return total


def dolev_four_cycle_detect(
    graph: Graph,
    *,
    clique: CongestedClique | None = None,
    mode: ScheduleMode = ScheduleMode.FAST,
) -> RunResult:
    """Dolev et al. 4-node subgraph detection at C4: ``O(n^{1/2})`` rounds."""
    if graph.directed:
        raise ValueError("the Dolev baseline is implemented for undirected graphs")
    n = graph.n
    clique = clique or CongestedClique(max(2, n), mode=mode)
    r = max(1, round(n ** 0.25))
    groups = _contiguous_groups(n, r)
    tuples = [
        (i, j, k, l)
        for i in range(r)
        for j in range(r)
        for k in range(r)
        for l in range(r)
    ]
    # The cycle's four bipartite edge sets: (i,j), (j,k), (k,l), (l,i).
    slices = _distribute_slices(
        clique,
        graph.adjacency,
        groups,
        [((i, j), (j, k), (k, l), (l, i)) for i, j, k, l in tuples],
        "dolev-c4/distribute",
    )
    found = [False] * clique.n
    for t_idx, (i, j, k, l) in enumerate(tuples):
        v = t_idx % clique.n
        if not found[v] and _tuple_has_c4(
            groups[i], groups[k], j == l, *slices[t_idx]
        ):
            found[v] = True
    verdict = or_broadcast(clique, found, phase="dolev-c4/verdict")
    return RunResult(
        value=verdict,
        rounds=clique.rounds,
        clique_size=clique.n,
        meter=clique.meter,
        extras={"groups": r},
    )


def _tuple_has_c4(
    gi: np.ndarray,
    gk: np.ndarray,
    same_bd_group: bool,
    ab: np.ndarray,
    bc: np.ndarray,
    cd: np.ndarray,
    da: np.ndarray,
) -> bool:
    """C4 test within one group tuple via two co-degree products.

    ``w1[a, c]`` counts ``b in Vj`` adjacent to both; ``w2[a, c]`` counts
    ``d in Vl`` adjacent to both.  A 4-cycle needs ``a != c`` and two
    *distinct* middle nodes; when ``Vj == Vl`` the two counts range over the
    same candidate set, so at least two candidates are required.
    """
    w1 = ab @ bc  # (a, c) via b
    w2 = (cd @ da).T  # (a, c) via d
    distinct = gi[:, None] != gk[None, :]
    if same_bd_group:
        return bool(np.any((w1 >= 2) & distinct))
    return bool(np.any((w1 >= 1) & (w2 >= 1) & distinct))


__all__ = ["dolev_triangle_count", "dolev_four_cycle_detect"]
