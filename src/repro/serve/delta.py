"""Incremental closure maintenance: re-square only the dirty strips.

The dirty-strip algebra
-----------------------

Let ``D`` be a valid min-plus closure (with routing table ``R``) of weight
matrix ``W``, and apply edge updates whose endpoint set is the *dirty* set
``S`` of size ``s``.  When every update is a **decrease or insertion**
(``w' <= W[u, v]``, including ``W[u, v] = INF`` non-edges), every old path
survives with its old weight, and every new shortest path decomposes at
its visits to ``S``:

    ``d'(a, b) = min( D[a, b],
                      min over x, y in S of D[a, x] + H*(x, y) + D[y, b] )``

where ``H*`` is the min-plus closure of the ``s x s`` *hub* seed
``H[x, y] = min(D[x, y], W'[x, y])`` -- segments between consecutive dirty
nodes are either old shortest paths or a (possibly updated) direct edge.
Proof sketch: ``<=`` because every term is achievable in the updated
graph; ``>=`` because any ``a -> b`` path's maximal dirty-free segments
each weigh at least the old distance between their endpoints (updated
edges have both endpoints dirty, so they can only appear *as* a segment,
covered by the ``W'`` seed).

That formula is exactly two rectangular min-plus witness products
(:func:`repro.matmul.semiring3d.strip_product_with_witness`) over the
``n x s`` / ``s x n`` dirty strips -- a bounded number of batched kernel
calls -- after two row broadcasts put ``H*``'s seed and the ``s`` dirty
distance rows on every node.  Those broadcasts are the entire round bill:
``O(s)``-row payloads against the ``ceil(log n)`` full re-squarings a
rebuild would run.  Routing tables update node-locally from the witness
pair plus first-waypoint bookkeeping carried through the hub closure.

A weight **increase** (or deletion) invalidates old closure entries that
rode the changed edge, which the resident state cannot detect locally;
:func:`apply_edge_updates` then falls back to a full resident rebuild
from the updated weights.  Negative-weight updates are allowed; a
negative cycle created by an update raises
:class:`~repro.errors.NegativeCycleError` -- on the hub-closure / candidate
diagonals in the fast arm, in the resident closure loop in the rebuild
arm -- and a rejected update leaves the caller's weights and resident
closure exactly as they were.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from repro.algebra.semirings import MIN_PLUS, saturating_add
from repro.clique.messages import block_widths
from repro.constants import INF, check_path_weight
from repro.errors import NegativeCycleError
from repro.matmul.semiring3d import strip_product_with_witness
from repro.serve.artifact import ClosureArtifact


@dataclass
class DeltaReport:
    """What one :func:`apply_edge_updates` call did and billed."""

    #: ``"delta"`` (dirty-strip update) or ``"rebuild"`` (full re-closure).
    mode: str
    #: Distinct edges updated.
    updates: int
    #: Dirty endpoint count ``s``.
    dirty: int
    #: Rounds billed on the session's clique by this call.
    rounds: int
    #: Closure entries that improved (``-1`` for rebuilds: not tracked).
    improved: int
    #: Artifact generation after commit (``-1`` without an artifact).
    generation: int = -1
    #: Why the rebuild arm ran, when it did.
    rebuild_reason: str | None = None

    def as_dict(self) -> dict:
        return asdict(self)


def normalise_updates(
    updates, n: int
) -> dict[tuple[int, int], int]:
    """Validate and dedupe ``(u, v, w)`` updates (last write wins).

    A finite weight must keep every simple path below ``INF``
    (:func:`~repro.constants.check_path_weight`); ``INF`` deletes the edge.
    """
    merged: dict[tuple[int, int], int] = {}
    for item in updates:
        try:
            u, v, w = item
        except (TypeError, ValueError):
            raise ValueError(
                f"each update must be a (u, v, weight) triple, got {item!r}"
            )
        u, v, w = int(u), int(v), int(w)
        if u == v:
            raise ValueError(f"self-loop update ({u}, {v}) is not supported")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(
                f"update endpoint out of range [0, {n}): ({u}, {v})"
            )
        if not -INF < w <= INF:
            raise ValueError(f"update weight {w} out of range")
        if w < INF:  # INF deletes the edge
            check_path_weight(w, n, "update weight")
        merged[(u, v)] = w
    if not merged:
        raise ValueError("no edge updates given")
    return merged


def apply_edge_updates(
    session,
    weights: np.ndarray,
    updates,
    *,
    directed: bool | None = None,
    artifact: ClosureArtifact | None = None,
    force_rebuild: bool = False,
) -> DeltaReport:
    """Maintain the session's resident closure under edge updates.

    Args:
        session: an :class:`~repro.engine.EngineSession` bound to min-plus
            with resident state seeded (a fresh build, or an artifact
            re-hydrated via :meth:`ClosureArtifact.resident_arrays`).
        weights: the clique-padded ``(N, N)`` weight matrix the resident
            closure was built from; updated **in place**.
        updates: iterable of ``(u, v, new_weight)`` triples;
            ``new_weight = INF`` deletes the edge.  Duplicate edges keep
            the last write.
        directed: edge orientation; defaults to the artifact's, else
            ``False`` (undirected updates write both triangle entries).
        artifact: when given (opened ``writable=True``), the touched block
            rows are rewritten and the manifest generation is bumped.
        force_rebuild: run the rebuild arm even for pure decreases (the
            equivalence tests' baseline).

    Returns a :class:`DeltaReport`; the fast arm runs iff every update is
    a decrease/insertion.  Values after either arm are identical
    edge-for-edge (property-tested); only the round bill differs.
    """
    state = session.resident
    if state is None:
        raise RuntimeError(
            "session has no resident closure; seed_resident/resident_closure "
            "(or ClosureArtifact.resident_arrays) first"
        )
    if getattr(session.algebra, "name", None) != MIN_PLUS.name:
        raise ValueError(
            "delta maintenance is defined for the min-plus closure; "
            f"session is bound to {getattr(session.algebra, 'name', '?')!r}"
        )
    big_n = session.n
    weights = np.asarray(weights)
    if weights.shape != (big_n, big_n):
        raise ValueError(
            f"weights must be clique-padded {big_n} x {big_n}, "
            f"got {weights.shape}"
        )
    if directed is None:
        directed = artifact.directed if artifact is not None else False
    n = artifact.n if artifact is not None else big_n
    merged = normalise_updates(updates, n)

    increases = [
        (u, v, w) for (u, v), w in merged.items() if w > weights[u, v]
    ]
    # Write the updates into the weight matrix (both triangle entries for
    # undirected graphs -- the closure is over the symmetric matrix),
    # remembering each overwritten entry so a rejected update can restore it.
    previous_weights: dict[tuple[int, int], int] = {}
    for (u, v), w in merged.items():
        for entry in [(u, v)] if directed else [(u, v), (v, u)]:
            previous_weights.setdefault(entry, int(weights[entry]))
            weights[entry] = w
    weight_rows = {u for u, _ in previous_weights}

    dirty = np.unique(
        np.array([e for uv in merged for e in uv], dtype=np.int64)
    )
    try:
        if increases or force_rebuild:
            reason = (
                "forced"
                if force_rebuild and not increases
                else f"{len(increases)} weight increase(s)/deletion(s)"
            )
            report = _rebuild(session, weights, len(merged), dirty.size, reason)
            touched_rows = np.arange(n, dtype=np.int64)
        else:
            report, touched_rows = _delta(session, weights, dirty, len(merged))
    except BaseException:
        # A rejected update (a negative cycle, a fault budget exceeded)
        # leaves the caller's state as it was: the overwritten weights come
        # back, and so does the resident closure the rebuild arm replaced
        # (seed_resident builds a new object, so the old one is intact).
        for entry, w in previous_weights.items():
            weights[entry] = w
        session.resident = state
        raise
    if artifact is not None:
        state = session.resident
        artifact.commit_update(
            dist=state.dist,
            next_hop=state.next_hop,
            weights=weights,
            rows=touched_rows,
            weight_rows=np.array(sorted(weight_rows), dtype=np.int64),
            report=report.as_dict(),
        )
        report.generation = artifact.generation
    return report


def _rebuild(
    session, weights: np.ndarray, updates: int, dirty: int, reason: str
) -> DeltaReport:
    """The fallback arm: full resident re-closure from the new weights."""
    mark = session.meter.snapshot()
    session.seed_resident(weights)
    session.resident_closure(phase="serve/delta-rebuild")
    return DeltaReport(
        mode="rebuild",
        updates=updates,
        dirty=dirty,
        rounds=session.meter.rounds_since(mark),
        improved=-1,
        rebuild_reason=reason,
    )


def _delta(
    session, weights: np.ndarray, dirty: np.ndarray, updates: int
) -> tuple[DeltaReport, np.ndarray]:
    """The fast arm: hub closure + two strip products, O(s)-row rounds."""
    state = session.resident
    dist = state.dist
    hops = state.next_hop
    clique = session.clique
    big_n = session.n
    s = int(dirty.size)
    mark = session.meter.snapshot()

    # --- round-billed part: two row broadcasts ----------------------- #
    # Hub seed rows: dirty node x broadcasts H[x, S] = min(D[x, S], W'[x, S])
    # (it owns row x of both the resident closure and the weights).
    hub_rows = np.zeros((big_n, s), dtype=np.int64)
    dist_sub = dist[np.ix_(dirty, dirty)]
    w_sub = weights[np.ix_(dirty, dirty)]
    seed_direct = w_sub < dist_sub
    hub_rows[dirty] = np.where(seed_direct, w_sub, dist_sub)
    widths = np.zeros(big_n, dtype=np.int64)
    widths[dirty] = block_widths(hub_rows[dirty], clique.word_bits)
    shared_hub = clique.broadcast_rows(
        hub_rows, widths=[int(w) for w in widths], phase="serve/delta/hub-rows"
    )
    # Dirty distance rows: dirty node x broadcasts its closure row D[x, :].
    row_payload = np.zeros((big_n, big_n), dtype=np.int64)
    row_payload[dirty] = dist[dirty]
    widths = np.zeros(big_n, dtype=np.int64)
    widths[dirty] = block_widths(row_payload[dirty], clique.word_bits)
    shared_rows = clique.broadcast_rows(
        row_payload, widths=[int(w) for w in widths],
        phase="serve/delta/dist-rows",
    )
    dirty_rows = np.array(shared_rows[dirty])  # (s, N) on every node

    # --- node-local part: replicated s x s hub closure ---------------- #
    # Floyd-Warshall on the broadcast seed, tracking each entry's first
    # waypoint and whether its first segment is the direct updated edge
    # (vs an old shortest path) -- that pair drives the routing update.
    hub = np.array(shared_hub[dirty])  # (s, s)
    waypoint = np.tile(np.arange(s, dtype=np.int64), (s, 1))
    first_direct = seed_direct.copy()
    for m in range(s):
        alt = saturating_add(hub[:, m][:, None], hub[m, :][None, :])
        better = alt < hub
        if better.any():
            hub = np.where(better, alt, hub)
            waypoint = np.where(better, waypoint[:, m][:, None], waypoint)
            first_direct = np.where(
                better, first_direct[:, m][:, None], first_direct
            )
    if np.any(np.diag(hub) < 0):
        raise NegativeCycleError(
            "edge update created a negative-weight cycle"
        )

    # --- strip products: the bounded batched kernel calls ------------- #
    cand, wx, wy = strip_product_with_witness(dist[:, dirty], hub, dirty_rows)
    if np.any(np.diagonal(cand) < 0):
        raise NegativeCycleError(
            "edge update created a negative-weight cycle"
        )
    improved = MIN_PLUS.improves(cand, dist)
    rows, cols = np.nonzero(improved)
    if rows.size:
        y_idx = wy[rows, cols]
        x_idx = wx[rows, y_idx]
        x_node = dirty[x_idx]
        # Default: the improved path enters the hub set at x != a, so it
        # starts along the old shortest a -> x path.
        new_hops = hops[rows, x_node]
        self_mask = rows == x_node
        if self_mask.any():
            # a == x: the first hub segment decides.  Direct updated edge
            # x -> wp makes wp itself the hop; an old-path segment keeps
            # the old route toward wp.
            sx = x_idx[self_mask]
            sy = y_idx[self_mask]
            wp_node = dirty[waypoint[sx, sy]]
            new_hops[self_mask] = np.where(
                first_direct[sx, sy],
                wp_node,
                hops[rows[self_mask], wp_node],
            )
        hops[rows, cols] = new_hops
        dist[rows, cols] = cand[rows, cols]
    state.generation += 1
    report = DeltaReport(
        mode="delta",
        updates=updates,
        dirty=s,
        rounds=session.meter.rounds_since(mark),
        improved=int(rows.size),
    )
    # Rows whose closure entries changed -- what the artifact rewrites.
    return report, np.unique(rows)


__all__ = ["DeltaReport", "apply_edge_updates"]
