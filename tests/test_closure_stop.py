"""The closure stop rule: a stopped closure ends where the full loop ends.

Every session closure loop squares until a squaring changes nothing
(:meth:`~repro.engine.EngineSession._square_to_fixpoint`).  Each squaring
is a deterministic function of the accumulator, so the stopped loop must
end in exactly the state the full ``steps`` loop ends in.  These tests
compare it with that full loop, replayed by ``tests/closure_replay.py``:

* **Bit-identity.**  On plain and Reed-Solomon coded cliques (t = 1, every
  adversary kind), serial and threaded, on graphs that converge early
  (random), late (grid, cycle) and never before the last squaring (a
  cycle on permuted node ids): values and routing tables are identical,
  and the bill -- the abstract one on a coded clique -- is the one
  derived from the replay.  On an unprotected faulty clique the stopped
  loop runs fewer exchanges, which draw different faults, so there a run
  must only end in a value or a :class:`~repro.errors.ReproError`.  The
  plain branch (``session.closure`` on min-plus and max-min) and the
  negative-cycle refusal are covered too.
* **Boolean seeds.**  A weighted Boolean seed closes like its 0/1 edge
  pattern, on the same bill, on all three engines.
* **Exhaustion.**  Every unit-weight directed graph on 4 nodes and every
  undirected graph on 5 nodes, against Floyd-Warshall and the replay.

The n >= 125 cases and the exhaustive check are marked ``slow``.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from closure_replay import full_schedule, stopped_phases

from repro.algebra.semirings import BOOLEAN, MAX_MIN, MIN_PLUS
from repro.clique.model import CongestedClique
from repro.constants import INF
from repro.distances import apsp_exact
from repro.distances.bottleneck import capacity_matrix
from repro.engine import EngineSession, make_clique
from repro.errors import NegativeCycleError, ReproError
from repro.faults import FaultPlan
from repro.graphs import apsp_reference, validate_routing_table
from repro.graphs.generators import cycle_graph, grid_graph, random_weighted_graph
from repro.graphs.graphs import Graph
from repro.runtime import pad_matrix

KINDS = ("flip", "drop", "crash", "byzantine")
GRAPHS = ("random", "grid", "cycle", "permuted-cycle")
#: Clique set-ups: fault-free, Reed-Solomon coded (t=1) and the unprotected
#: wrapper, for every adversary kind.
CLIQUES = ("plain",) + tuple(f"coded-{k}" for k in KINDS) + tuple(
    f"unprotected-{k}" for k in KINDS
)
GRID_ROWS = {27: 3, 64: 8, 125: 5}


def _graph(kind: str, n: int, seed: int = 0) -> Graph:
    if kind == "random":
        return random_weighted_graph(n, 0.15, max_weight=50, seed=seed)
    if kind == "grid":
        return grid_graph(GRID_ROWS[n], n // GRID_ROWS[n], seed=seed)
    if kind == "cycle":
        return cycle_graph(n)
    # A weighted cycle on randomly permuted node ids: its entries keep
    # changing until the last squaring.
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    edges = [
        (int(order[i]), int(order[(i + 1) % n]), int(rng.integers(1, 100)))
        for i in range(n)
    ]
    return Graph.from_weighted_edges(n, edges)


def _clique(setup: str, n: int, threads: int, seed: int) -> CongestedClique:
    if setup == "plain":
        return make_clique(n, "semiring", threads=threads)
    arm, kind = setup.split("-")
    plan = FaultPlan(t=1, seed=seed, kind=kind)
    tolerance = 1 if arm == "coded" else None
    return make_clique(
        n, "semiring", threads=threads, fault_plan=plan, fault_tolerance=tolerance
    )


def _resident_closure(clique: CongestedClique, matrix: np.ndarray):
    """The session's witnessed closure loop: ``(dist, next_hop)``."""
    session = EngineSession(clique, "semiring", MIN_PLUS)
    state = session.seed_resident(matrix)
    session.resident_closure(phase="apsp")
    return state.dist, state.next_hop


def _check_resident_closure(n: int, graph_kind: str, setup: str, threads: int):
    seed = 1
    matrix = pad_matrix(_graph(graph_kind, n, seed).weight_matrix(), n, fill=INF)
    replayed = make_clique(n, "semiring", threads=threads)
    with full_schedule() as loops:
        want = _resident_closure(replayed, matrix)
    clique = _clique(setup, n, threads, seed)
    if setup.startswith("unprotected"):
        try:
            _resident_closure(clique, matrix)
        except ReproError:
            pass
        return
    got = _resident_closure(clique, matrix)
    for a, b in zip(got, want):
        assert np.array_equal(a, b)
    meter = clique.meter if setup == "plain" else clique.abstract_meter
    assert meter.phases == stopped_phases(replayed.meter, loops)


class TestBitIdentity:
    @pytest.mark.parametrize("setup", CLIQUES)
    @pytest.mark.parametrize("graph_kind", GRAPHS)
    @pytest.mark.parametrize("threads", (1, 2))
    def test_resident_closure_n27(self, graph_kind, setup, threads):
        _check_resident_closure(27, graph_kind, setup, threads)

    @pytest.mark.parametrize("setup", CLIQUES)
    @pytest.mark.parametrize("graph_kind", GRAPHS)
    def test_resident_closure_n64(self, graph_kind, setup):
        _check_resident_closure(64, graph_kind, setup, 1)

    @pytest.mark.slow
    @pytest.mark.parametrize("setup", CLIQUES)
    @pytest.mark.parametrize("graph_kind", GRAPHS)
    @pytest.mark.parametrize("threads", (1, 2))
    def test_resident_closure_n125(self, graph_kind, setup, threads):
        _check_resident_closure(125, graph_kind, setup, threads)

    @pytest.mark.parametrize("semiring", (MIN_PLUS, MAX_MIN), ids=lambda s: s.name)
    @pytest.mark.parametrize("threads", (1, 2))
    def test_plain_branch_closure(self, semiring, threads):
        """``session.closure`` squares without witnesses (the plain branch)."""
        n = 64
        graph = _graph("grid", n)
        if semiring is MIN_PLUS:
            matrix = pad_matrix(graph.weight_matrix(), n, fill=INF)
        else:
            matrix = capacity_matrix(graph)

        def closure():
            clique = make_clique(n, "semiring", threads=threads)
            return EngineSession(clique, "semiring", semiring).closure(matrix), clique

        with full_schedule() as loops:
            want, replayed = closure()
        got, clique = closure()
        assert np.array_equal(got, want)
        assert clique.meter.phases == stopped_phases(replayed.meter, loops)

    @pytest.mark.parametrize("resident", (True, False), ids=("resident", "plain"))
    @pytest.mark.parametrize("seed", range(4))
    def test_negative_cycle_refusal(self, resident, seed):
        """A negative cycle improves the diagonal on every squaring, so the
        loop never stops early: it refuses in the phase the full loop
        refuses in."""
        n = 27
        rng = np.random.default_rng(seed)
        matrix = rng.integers(1, 30, (n, n), dtype=np.int64)
        matrix[rng.random((n, n)) < 0.8] = INF
        np.fill_diagonal(matrix, 0)
        cycle = rng.choice(n, 3, replace=False)
        for u, v in zip(cycle, np.roll(cycle, -1)):
            matrix[u, v] = -10

        def refusal() -> str:
            session = EngineSession(CongestedClique(n), "semiring", MIN_PLUS)
            with pytest.raises(NegativeCycleError) as caught:
                if resident:
                    session.seed_resident(matrix)
                    session.resident_closure()
                else:
                    session.closure(matrix)
            return str(caught.value)

        with full_schedule():
            want = refusal()
        assert refusal() == want


#: Closed 0/1 seeds: their first squaring changes nothing.
CLOSED_SEEDS = {
    "identity": np.eye(16, dtype=np.int64),
    "upper-triangle": np.triu(np.ones((16, 16), dtype=np.int64)),
}


class TestBooleanSeed:
    """A Boolean closure thresholds its seed once (Corollary 2: entries
    ``> 0`` are edges), so a weighted seed closes to the value of its 0/1
    edge pattern on the same bill, on every engine."""

    @staticmethod
    def _close(method: str, seed: np.ndarray):
        session = EngineSession(make_clique(16, method), method, BOOLEAN)
        value = session.closure(pad_matrix(seed, session.n))
        return value, session.clique.meter.phases, session.last_squarings

    @pytest.mark.parametrize("method", ("bilinear", "naive", "semiring"))
    @pytest.mark.parametrize("name", CLOSED_SEEDS)
    def test_weighted_seed_closes_like_its_edges(self, name, method):
        edges = CLOSED_SEEDS[name]
        rng = np.random.default_rng(3)
        weights = np.where(
            edges > 0,
            rng.integers(2, 9, edges.shape),
            rng.integers(-3, 1, edges.shape),
        )
        got, want = self._close(method, weights), self._close(method, edges)
        assert np.array_equal(got[0], want[0])
        assert got[1:] == want[1:]
        assert want[2] == 1


def _check_every_graph(n: int, directed: bool) -> int:
    """Exact APSP with routing tables on every unit-weight graph on ``n``
    nodes: equal to Floyd-Warshall, to the full loop's values and routing
    tables, and billed as derived.  Returns the number of graphs."""
    pairs = [
        (u, v) for u, v in itertools.permutations(range(n), 2) if directed or u < v
    ]
    for mask in range(1 << len(pairs)):
        graph = Graph.from_edges(
            n, [pair for i, pair in enumerate(pairs) if mask >> i & 1], directed
        )
        with full_schedule() as loops:
            want = apsp_exact(graph)
        got = apsp_exact(graph)
        assert np.array_equal(got.value, apsp_reference(graph)), mask
        assert np.array_equal(got.value, want.value), mask
        assert np.array_equal(got.extras["next_hop"], want.extras["next_hop"]), mask
        assert validate_routing_table(graph, got.value, got.extras["next_hop"]), mask
        assert got.meter.phases == stopped_phases(want.meter, loops), mask
    return 1 << len(pairs)


@pytest.mark.slow
class TestEveryGraph:
    def test_directed_graphs_on_4_nodes(self):
        assert _check_every_graph(4, directed=True) == 4096

    def test_undirected_graphs_on_5_nodes(self):
        """Capped at ``ceil(log2 5) = 3`` squarings."""
        assert _check_every_graph(5, directed=False) == 1024
