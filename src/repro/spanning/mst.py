"""O(1)-round MST skeleton on the session API (Jurdzinski--Nowicki).

Jurdzinski--Nowicki (arXiv:1707.08484) compute an MST in O(1) congested-
clique rounds by combining Boruvka-style component contraction with the
Karger--Klein--Tarjan (KKT) sampling lemma: sample the surviving edges,
build a forest ``F`` of the sample, discard the *F-heavy* edges (heaviest
on a cycle, hence provably not in the MST), and finish on the few
survivors.  This module implements that skeleton as a first-class consumer
of the repo's engine sessions:

* **Component contraction via the components session** -- labels are the
  algebraic route of :mod:`repro.distances.components`: a Boolean
  transitive closure on the forest adjacency through a bound
  :class:`~repro.engine.EngineSession`, each vertex labelling itself with
  the smallest id it reaches (one one-word broadcast announces labels to
  neighbours).
* **Boruvka steps as min-plus contraction products** -- the cheapest edge
  between every pair of components is the two-sided min-plus product
  ``Mᵀ (x) W (x) M`` of the encoded weight matrix with the membership
  matrix, run as two session products.  Edge identities ride inside the
  values: weights are *encoded* with their endpoint pair
  (``w·S² + lo·S + hi``), the same fold-the-tag-into-the-operand trick the
  packed witness kernels use, which also makes the edge order strict and
  the MST unique -- simultaneous per-component minima can never close a
  cycle.
* **F-light filtering as a collective exchange** -- each vertex filters
  its incident surviving edges against the globally known sample forest
  (row-local compute), and the light survivors are replicated by one
  :meth:`~repro.clique.model.CongestedClique.allgather_rows` --
  ``O(R / n)`` rounds, constant while the KKT bound keeps ``R = O(n)``.

The *skeleton* caveat, kept honest: the label closure and the contraction
products are charged at their full metered cost (they scale with ``n``;
Jurdzinski--Nowicki replace them with O(1)-round sketching), while the
Boruvka candidate broadcasts, the label announcements and the F-light
gather are the constant-round pieces -- ``extras["phase_rounds"]`` splits
the bill so the tests can pin exactly those phases constant across sizes.

Every product runs through ``EngineSession`` (arena-backed exchanges, no
tuple outboxes); randomness resolves via :func:`repro.runtime.resolve_rng`
(shared-seed convention).  The output is the unique MST under the encoded
order, so the distributed run is edge-identical to the centralised Kruskal
oracle (:func:`mst_reference`) -- sampling can only change the
intermediate forest, never the answer.
"""

from __future__ import annotations

import numpy as np

from repro.algebra.semirings import BOOLEAN, MIN_PLUS
from repro.clique.model import CongestedClique
from repro.constants import INF
from repro.distances.bounded import reachability
from repro.engine import EngineSession
from repro.errors import CliqueModelError
from repro.graphs.graphs import Graph
from repro.runtime import RunResult, make_clique, resolve_rng

#: Word width for a broadcast Boruvka candidate record ``(has, b, enc)``:
#: two id-sized fields plus a two-word encoded weight.  Fixed (rather than
#: magnitude-derived) so candidate rounds are constant across sizes.
_CANDIDATE_WORDS = 4

#: Words per gathered F-light edge record (one encoded weight).
_RECORD_WORDS = 2


def encode_weights(graph: Graph, size: int | None = None) -> np.ndarray:
    """Weights encoded with their endpoints: ``w·S² + lo·S + hi``.

    ``S = size`` (default ``graph.n``).  The encode is symmetric, strictly
    totally ordered (distinct per edge, lexicographic ``(w, lo, hi)``) and
    order-preserving on weights, so the MST under it is unique and its
    weight equals the ordinary MST weight.  Non-edges and the diagonal are
    ``INF``; entries stay far below ``INF`` (``w <= 2^40`` at ``S <= 2048``
    keeps the encode within ``int64``).
    """
    n = graph.n
    size = n if size is None else size
    w = graph.weight_matrix()
    edge = graph.adjacency > 0
    if np.any(edge & (w < 0)):
        raise ValueError("the MST encode needs non-negative edge weights")
    # The encode must stay strictly below INF (entries at or past it would
    # silently read as non-edges) and inside int64.
    max_weight = int(w[edge].max()) if edge.any() else 0
    if (max_weight + 1) * size * size >= INF:
        raise ValueError(
            f"edge weight {max_weight} too large to encode at size {size} "
            f"(needs (w + 1) * size^2 < 2^62)"
        )
    enc = np.full((size, size), INF, dtype=np.int64)
    us, vs = np.nonzero(graph.adjacency)
    lo = np.minimum(us, vs)
    hi = np.maximum(us, vs)
    enc[us, vs] = w[us, vs] * size * size + lo * size + hi
    return enc


def decode_edge(enc: int, size: int) -> tuple[int, int, int]:
    """Invert :func:`encode_weights` for one entry: ``(weight, lo, hi)``."""
    return int(enc) // (size * size), (int(enc) % (size * size)) // size, int(
        enc
    ) % size


def _check_edges(encs: np.ndarray, n: int, size: int, phase: str) -> None:
    """Refuse encoded edges whose endpoints are not real nodes ``lo < hi < n``.

    Every candidate and survivor is an edge of the input graph; anything
    else can only be a corrupted delivery, and must not reach the local
    forest and result builds.
    """
    encs = np.asarray(encs, dtype=np.int64)
    lo, hi = (encs % (size * size)) // size, encs % size
    if not np.all(lo < hi) or (hi.size and int(hi.max()) >= n):
        raise CliqueModelError(
            f"phase {phase} delivered an encoded edge outside 0 <= lo < hi < {n}"
        )


def _forest_path_max(edges: list[int], size: int) -> np.ndarray:
    """Max encoded weight on the forest path between every pair.

    ``out[u, v] = -1`` when no path exists (and on the diagonal); otherwise
    the largest encoded edge weight on the unique ``u``--``v`` path.  Pure
    node-local compute in the model: the forest is globally known (all its
    edges were broadcast), so each node evaluates its own row for free.
    """
    adjacency: list[list[tuple[int, int]]] = [[] for _ in range(size)]
    for enc in edges:
        _, lo, hi = decode_edge(enc, size)
        adjacency[lo].append((hi, enc))
        adjacency[hi].append((lo, enc))
    out = np.full((size, size), -1, dtype=np.int64)
    for source in range(size):
        stack = [source]
        seen = {source}
        while stack:
            node = stack.pop()
            for neighbour, enc in adjacency[node]:
                if neighbour in seen:
                    continue
                seen.add(neighbour)
                out[source, neighbour] = max(out[source, node], enc)
                stack.append(neighbour)
    return out


def _kruskal(encs, n: int, size: int) -> list[int]:
    """Kruskal under the encoded strict order (local union-find)."""
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    chosen: list[int] = []
    for enc in sorted(set(int(e) for e in encs)):
        _, lo, hi = decode_edge(enc, size)
        root_lo, root_hi = find(lo), find(hi)
        if root_lo != root_hi:
            parent[root_lo] = root_hi
            chosen.append(enc)
    return chosen


class _MstRun:
    """One distributed MST run: sessions, meter bookkeeping, phase loop."""

    def __init__(
        self,
        graph: Graph,
        method: str,
        clique: CongestedClique,
        rng: np.random.Generator,
        sample_probability: float,
    ) -> None:
        self.graph = graph
        self.n = graph.n
        self.clique = clique
        self.size = clique.n
        # Two sessions, one clique/meter: labels run over the Boolean
        # semiring, contraction over min-plus -- the Seidel/girth pattern.
        self.bool_session = EngineSession(clique, method, BOOLEAN)
        self.mp_session = EngineSession(clique, method, MIN_PLUS)
        self.rng = rng
        self.sample_probability = sample_probability
        self.enc = encode_weights(graph, self.size)
        self.forest_edges: list[int] = []
        self.forest_adjacency = np.zeros((self.size, self.size), dtype=np.int64)
        self.phase_rounds: dict[str, int] = {}

    def _meter(self, label: str, mark: int) -> None:
        rounds = self.clique.meter.rounds_since(mark)
        self.phase_rounds[label] = self.phase_rounds.get(label, 0) + rounds

    # ---------------------------------------------------------------- #
    # Component labels: the components session (Boolean closure).
    # ---------------------------------------------------------------- #

    def labels(self, tag: str) -> np.ndarray:
        """Smallest reachable id on the current forest, via the session."""
        mark = self.clique.meter.snapshot()
        reach = reachability(
            self.clique,
            self.forest_adjacency,
            session=self.bool_session,
            phase=f"{tag}/closure",
        )
        self._meter("labels_closure", mark)
        labels = np.argmax(reach > 0, axis=1).astype(np.int64)
        # Row v yields only label[v]; one one-word broadcast makes the
        # labelling global (neighbour labels feed the inter-component
        # masks) -- a constant-round phase.
        mark = self.clique.meter.snapshot()
        self.clique.broadcast_rows(
            labels, widths=[1] * self.size, phase=f"{tag}/announce"
        )
        self._meter("labels_announce", mark)
        return labels

    # ---------------------------------------------------------------- #
    # Boruvka step: contraction products + candidate broadcast.
    # ---------------------------------------------------------------- #

    def _contract(self, weights: np.ndarray, labels: np.ndarray, tag: str):
        """``Mᵀ (x) W (x) M``: cheapest encoded edge per component pair."""
        membership = np.full((self.size, self.size), INF, dtype=np.int64)
        membership[np.arange(self.size), labels] = 0
        mark = self.clique.meter.snapshot()
        inner = self.mp_session.multiply(
            weights, membership, phase=f"{tag}/contract-right"
        )
        contracted = self.mp_session.multiply(
            membership.T, inner, phase=f"{tag}/contract-left"
        )
        self._meter("contract_products", mark)
        return contracted

    def boruvka_step(self, weights: np.ndarray, labels: np.ndarray, tag: str) -> list[int]:
        """One simultaneous min-outgoing-edge round; returns chosen encs.

        Component ``a``'s row of the contracted matrix lives at node ``a``
        (the component's label); that node broadcasts one fixed-width
        candidate record.  Edge identities decode from the encoded value,
        so no witness resolution round is needed.  Under the strict encoded
        order the simultaneous choices are acyclic; a deterministic local
        union-find guards the merge regardless.
        """
        contracted = self._contract(weights, labels, tag)
        np.fill_diagonal(contracted, INF)
        best = contracted.min(axis=1)
        has = best < INF
        candidates = np.zeros((self.size, 3), dtype=np.int64)
        candidates[has, 0] = 1
        candidates[has, 1] = np.argmin(contracted, axis=1)[has]
        candidates[has, 2] = best[has]
        mark = self.clique.meter.snapshot()
        received = self.clique.broadcast_rows(
            candidates,
            widths=[_CANDIDATE_WORDS] * self.size,
            phase=f"{tag}/candidates",
        )
        self._meter("boruvka_candidates", mark)
        _check_edges(received[has, 2], self.n, self.size, f"{tag}/candidates")
        # Deterministic merge, identical at every node: Kruskal over the
        # received candidates (ascending encoded order; union-find dedupes
        # mutual picks and guards acyclicity).
        return _kruskal(received[has, 2], self.size, self.size)

    def absorb(self, encs: list[int]) -> None:
        for enc in encs:
            _, lo, hi = decode_edge(enc, self.size)
            self.forest_adjacency[lo, hi] = 1
            self.forest_adjacency[hi, lo] = 1
        self.forest_edges.extend(encs)

    # ---------------------------------------------------------------- #
    # KKT sampling + F-light filter + gather.
    # ---------------------------------------------------------------- #

    def kkt_finish(self, labels: np.ndarray) -> tuple[list[int], int]:
        """Sample, filter F-heavy edges, gather survivors, Kruskal locally."""
        inter = (self.enc < INF) & (labels[:, None] != labels[None, :])
        # Shared symmetric coins (one draw per unordered real pair).
        coins = self.rng.random((self.n, self.n))
        coins = np.triu(coins, 1)
        coins = coins + coins.T
        coin_pad = np.ones((self.size, self.size))
        coin_pad[: self.n, : self.n] = coins
        sampled = np.where(
            inter & (coin_pad < self.sample_probability), self.enc, INF
        )
        # F = current forest + one contracted Boruvka step on the sample
        # (the skeleton's stand-in for the sample's full MSF; any forest
        # makes the filter *sound* -- an F-heavy edge is the heaviest on a
        # cycle -- the MSF only sharpens the survivor count).
        f_edges = self.forest_edges + self.boruvka_step(
            sampled, labels, "mst/kkt"
        )
        # F-light filter: row-local against the globally known F.
        path_max = _forest_path_max(f_edges, self.size)
        light = inter & ((path_max < 0) | (self.enc <= path_max))
        # Each vertex contributes its lo-endpoint survivors; one allgather
        # replicates them (O(R/n) rounds -- constant while R = O(n)).
        rows = []
        for v in range(self.size):
            cols = np.nonzero(light[v] & (np.arange(self.size) > v))[0]
            rows.append(self.enc[v, cols].reshape(-1, 1))
        mark = self.clique.meter.snapshot()
        gathered = self.clique.allgather_rows(
            rows, words_per_record=_RECORD_WORDS, phase="mst/kkt/gather"
        )
        self._meter("flight_gather", mark)
        _check_edges(gathered[:, 0], self.n, self.size, "mst/kkt/gather")
        survivors = [int(e) for e in gathered[:, 0]]
        chosen = _kruskal(self.forest_edges + survivors, self.size, self.size)
        return chosen, len(survivors)


def minimum_spanning_forest(
    graph: Graph,
    *,
    method: str = "semiring",
    clique: CongestedClique | None = None,
    rng: np.random.Generator | None = None,
    seed: int | None = 0,
    boruvka_phases: int = 2,
    sample_probability: float = 0.5,
) -> RunResult:
    """The minimum spanning forest via the Jurdzinski--Nowicki skeleton.

    A constant number of Boruvka phases (components-session labels +
    min-plus contraction products + one-round candidate broadcasts), then
    one KKT sample-filter-gather round and a node-local Kruskal finish on
    the replicated survivors.  The result is the *unique* MSF under the
    encoded ``(w, lo, hi)`` order -- edge-identical to
    :func:`mst_reference`, with total weight equal to any MST's.

    Args:
        method: a selection-semiring engine (``"semiring"`` / ``"naive"``);
            min-plus contraction cannot run on the bilinear engine.
        boruvka_phases: contraction phases before sampling (constant;
            ``extras["phases"]`` records it).
        sample_probability: KKT edge-sampling probability.

    Returns:
        ``value``: symmetric ``(n, n)`` 0/1 MSF adjacency; ``extras``:
        ``weight``, ``edges`` (as ``(u, v, w)`` triples), ``phases``,
        ``phase_rounds`` (the per-phase round split the constant-round
        tests pin) and ``flight_survivors``.
    """
    if graph.directed:
        raise ValueError("MST is defined for undirected graphs")
    if boruvka_phases < 0:
        raise ValueError(f"boruvka_phases must be >= 0, got {boruvka_phases}")
    if not 0.0 < sample_probability <= 1.0:
        raise ValueError(
            f"sample_probability must be in (0, 1], got {sample_probability}"
        )
    n = graph.n
    clique = clique or make_clique(n, method)
    run = _MstRun(
        graph, method, clique, resolve_rng(rng, seed), sample_probability
    )

    for phase in range(boruvka_phases):
        labels = run.labels(f"mst/boruvka{phase}/labels")
        # Contract the surviving inter-component edges (intra-component
        # entries cannot surface off the contracted diagonal, so the full
        # encoded matrix is the right operand).
        chosen = run.boruvka_step(run.enc, labels, f"mst/boruvka{phase}")
        if not chosen:
            break
        run.absorb(chosen)

    labels = run.labels("mst/kkt/labels")
    mst_edges, survivors = run.kkt_finish(labels)

    adjacency = np.zeros((n, n), dtype=np.int64)
    triples: list[tuple[int, int, int]] = []
    weight = 0
    for enc in sorted(mst_edges):
        w, lo, hi = decode_edge(enc, run.size)
        adjacency[lo, hi] = 1
        adjacency[hi, lo] = 1
        triples.append((lo, hi, w))
        weight += w
    return RunResult(
        value=adjacency,
        rounds=clique.rounds,
        clique_size=clique.n,
        meter=clique.meter,
        extras={
            "weight": weight,
            "edges": triples,
            "phases": boruvka_phases + 1,
            "phase_rounds": dict(run.phase_rounds),
            "flight_survivors": survivors,
            "forest_edges_before_kkt": len(run.forest_edges),
        },
    )


def mst_reference(graph: Graph) -> tuple[list[tuple[int, int, int]], int]:
    """Centralised Kruskal oracle under the same encoded strict order.

    Returns the ``(u, v, w)`` triples (ascending encoded order) and the
    total weight -- the distributed skeleton must match edge-for-edge.
    """
    if graph.directed:
        raise ValueError("MST is defined for undirected graphs")
    n = graph.n
    enc = encode_weights(graph)
    us, vs = np.nonzero(np.triu(graph.adjacency))
    chosen = _kruskal(enc[us, vs], n, n)
    triples = [decode_edge(e, n) for e in chosen]
    return (
        [(lo, hi, w) for (w, lo, hi) in triples],
        int(sum(w for (w, _, _) in triples)),
    )


__all__ = [
    "minimum_spanning_forest",
    "mst_reference",
    "encode_weights",
    "decode_edge",
]
