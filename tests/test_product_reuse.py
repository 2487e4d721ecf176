"""Block-product reuse in the §2.1 engine: exact, and actually reused.

:func:`~repro.matmul.semiring3d.semiring_matmul` recomputes only the node
block products whose inputs changed since the previous product on the same
arena.  These tests pin three things:

* **Bit-identity.**  A session's resident closure equals the same loop with
  the arena released before every squaring (so every block is recomputed):
  values, witnesses, routing tables, every meter entry, words, injected
  faults and the type of any raised error -- on plain, coded and
  unprotected faulty cliques, serial and threaded, on graphs that converge
  early (random), late (grid, cycle) and never reuse (a cycle on permuted
  node ids, the control).  The plain (witness-free) branch is covered
  through ``session.closure`` on min-plus and max-min.
* **Reuse happens.**  A squaring that follows one that changed nothing
  makes no executor call.
* **Invalidation.**  ``close()``, a switch of semiring or of
  ``with_witnesses``, an in-place edit of the caller's operand, and a
  step-1 delivery that differs from what was sent (now or last time) all
  force a recompute.

The n >= 125 cases are marked ``slow``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.algebra.semirings import MAX_MIN, MIN_PLUS
from repro.clique.arena import ExchangeArena
from repro.clique.executor import SerialExecutor
from repro.clique.model import CongestedClique
from repro.constants import INF
from repro.distances.bottleneck import capacity_matrix
from repro.engine import EngineSession, default_steps, make_clique
from repro.errors import ReproError
from repro.faults import FaultPlan
from repro.graphs.generators import cycle_graph, grid_graph, random_weighted_graph
from repro.graphs.graphs import Graph
from repro.matmul.semiring3d import semiring_matmul
from repro.runtime import pad_matrix

KINDS = ("flip", "drop", "crash", "byzantine")
GRAPHS = ("random", "grid", "cycle", "permuted-cycle")
#: Clique set-ups: fault-free, Reed-Solomon coded (t=1) and the unprotected
#: wrapper, for every adversary kind.
CLIQUES = ("plain",) + tuple(f"coded-{k}" for k in KINDS) + tuple(
    f"unprotected-{k}" for k in KINDS
)
GRID_ROWS = {27: 3, 64: 8, 125: 5}


class SpyExecutor(SerialExecutor):
    """A serial executor that records the batch size of every call."""

    def __init__(self, backend=None) -> None:
        super().__init__(backend)
        self.batches: list[int] = []

    def semiring_products(
        self, semiring, lefts, rights, *, with_witnesses=False, out=None
    ):
        self.batches.append(lefts.shape[0])
        return super().semiring_products(
            semiring, lefts, rights, with_witnesses=with_witnesses, out=out
        )


def _graph(kind: str, n: int, seed: int = 0) -> Graph:
    if kind == "random":
        return random_weighted_graph(n, 0.15, max_weight=50, seed=seed)
    if kind == "grid":
        return grid_graph(GRID_ROWS[n], n // GRID_ROWS[n], seed=seed)
    if kind == "cycle":
        return cycle_graph(n)
    # The control: a weighted cycle on randomly permuted node ids, whose
    # entries keep changing in every block until the last squaring.
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


def _release_before_every_square(session: EngineSession) -> None:
    """Give every squaring a fresh arena: no block product is reused."""
    square = session.square

    def fresh_square(*args, **kwargs):
        session.arena.release()
        return square(*args, **kwargs)

    session.square = fresh_square


def _resident_closure(clique: CongestedClique, matrix: np.ndarray, *, reuse: bool):
    """The session's witnessed closure loop and everything it produced.

    ``reuse=False`` releases the arena before every squaring, so every
    block product is recomputed -- the reference the cache must match.
    """
    session = EngineSession(clique, "semiring", MIN_PLUS)
    session.seed_resident(matrix)
    if not reuse:
        _release_before_every_square(session)
    error = None
    try:
        session.resident_closure(phase="apsp")
    except ReproError as exc:
        error = type(exc)
    state = session.resident
    return {
        "dist": state.dist.copy(),
        "next_hop": state.next_hop.copy(),
        "squarings": state.squarings,
        "phases": list(clique.meter.phases),
        "words": clique.meter.words,
        "rounds": clique.meter.rounds,
        "faults": getattr(clique, "faults_injected", 0),
        "error": error,
    }


def _assert_same(got: dict, want: dict) -> None:
    for key in want:
        if isinstance(want[key], np.ndarray):
            assert np.array_equal(got[key], want[key]), key
        else:
            assert got[key] == want[key], key


def _check_resident_closure(n: int, graph_kind: str, setup: str, threads: int):
    seed = 1
    graph = _graph(graph_kind, n, seed)
    matrix = pad_matrix(graph.weight_matrix(), n, fill=INF)
    got = _resident_closure(_clique(setup, n, threads, seed), matrix, reuse=True)
    want = _resident_closure(_clique(setup, n, threads, seed), matrix, reuse=False)
    _assert_same(got, want)


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

        def closure(reuse: bool):
            clique = make_clique(n, "semiring", threads=threads)
            session = EngineSession(clique, "semiring", semiring)
            if not reuse:
                _release_before_every_square(session)
            return session.closure(matrix), list(clique.meter.phases)

        got, got_phases = closure(True)
        want, want_phases = closure(False)
        assert np.array_equal(got, want)
        assert got_phases == want_phases


def _spy_session(n: int, semiring=MIN_PLUS) -> tuple[EngineSession, SpyExecutor]:
    spy = SpyExecutor()
    return EngineSession(CongestedClique(n, executor=spy), "semiring", semiring), spy


def _distances(n: int, seed: int = 3) -> np.ndarray:
    rng = np.random.default_rng(seed)
    d = rng.integers(1, 60, (n, n), dtype=np.int64)
    d[rng.random((n, n)) < 0.6] = INF
    np.fill_diagonal(d, 0)
    return d


class TestReuseHappens:
    def test_converged_squarings_skip_the_executor(self):
        n = 64
        session, spy = _spy_session(n)
        graph = _graph("random", n, seed=2)
        session.seed_resident(pad_matrix(graph.weight_matrix(), n, fill=INF))
        calls, changed = [], []
        for step in range(default_steps(n)):
            before = len(spy.batches)
            changed.append(session.resident_square(phase=f"sq{step}"))
            calls.append(spy.batches[before:])
        assert calls[0] == [n]
        assert not all(changed), "the graph should converge before the end"
        for step in range(1, len(calls)):
            if not changed[step - 1]:
                assert calls[step] == [], step
            else:
                assert len(calls[step]) == 1, step

    def test_partial_recompute_sends_one_smaller_batch(self):
        """On the grid some squarings change only some blocks."""
        n = 64
        session, spy = _spy_session(n)
        graph = _graph("grid", n)
        session.seed_resident(pad_matrix(graph.weight_matrix(), n, fill=INF))
        session.resident_closure()
        assert all(0 < b <= n for b in spy.batches)
        assert any(b < n for b in spy.batches)

    def test_permuted_cycle_recomputes_every_block(self):
        """The control: every squaring changes every block."""
        n = 64
        session, spy = _spy_session(n)
        graph = _graph("permuted-cycle", n)
        session.seed_resident(pad_matrix(graph.weight_matrix(), n, fill=INF))
        session.resident_closure()
        assert spy.batches == [n] * default_steps(n)


class _OutSpy(SpyExecutor):
    """A :class:`SpyExecutor` that also records which calls got ``out=``."""

    def __init__(self) -> None:
        super().__init__()
        self.direct: list[bool] = []

    def semiring_products(self, semiring, lefts, rights, **kwargs):
        self.direct.append(kwargs.get("out") is not None)
        return super().semiring_products(semiring, lefts, rights, **kwargs)


class TestDirectOutput:
    def test_direct_and_scatter_paths_leave_identical_send_buffers(self):
        """A partly converged grid closure: with reuse, later squarings
        scatter a stale subset into the step-3 send buffer; with a fresh
        arena per squaring every squaring writes all blocks straight into
        it.  After every squaring both send buffers, and at the end the
        values, routing tables and ``PhaseCost`` lists, are identical."""
        n, q2 = 64, 16
        matrix = pad_matrix(_graph("grid", n).weight_matrix(), n, fill=INF)

        def closure(reuse: bool):
            spy = _OutSpy()
            clique = CongestedClique(n, executor=spy)
            session = EngineSession(clique, "semiring", MIN_PLUS)
            session.seed_resident(matrix)
            if not reuse:
                _release_before_every_square(session)
            square, sent = session.square, []

            def recording_square(*args, **kwargs):
                result = square(*args, **kwargs)
                sent.append(
                    session.arena.buffer("cube/blocks3w", (n, q2, 2, q2)).copy()
                )
                return result

            session.square = recording_square
            session.resident_closure(phase="apsp")
            state = session.resident
            return state, sent, list(clique.meter.phases), spy

        got, got_sent, got_phases, scatter = closure(reuse=True)
        want, want_sent, want_phases, direct = closure(reuse=False)
        assert any(0 < b < n for b in scatter.batches)
        assert scatter.direct == [b == n for b in scatter.batches]
        assert direct.direct and all(direct.direct)
        assert direct.batches == [n] * len(direct.batches)
        assert len(got_sent) == len(want_sent) > 1
        for step, (a, b) in enumerate(zip(got_sent, want_sent)):
            assert np.array_equal(a, b), step
        assert np.array_equal(got.dist, want.dist)
        assert np.array_equal(got.next_hop, want.next_hop)
        assert got_phases == want_phases


class TestInvalidation:
    def test_close_then_same_square_recomputes(self):
        n = 27
        session, spy = _spy_session(n)
        x = _distances(n)
        first = session.square(x, with_witnesses=True)
        second = session.square(x, with_witnesses=True)
        assert spy.batches == [n]  # the repeat reused every block
        session.close()
        third = session.square(x, with_witnesses=True)
        assert spy.batches == [n, n]
        for got in (second, third):
            assert np.array_equal(got[0], first[0])
            assert np.array_equal(got[1], first[1])

    def test_semiring_switch_recomputes(self):
        n = 27
        clique = CongestedClique(n, executor=SpyExecutor())
        arena = ExchangeArena()
        x = _distances(n)
        for semiring in (MIN_PLUS, MAX_MIN, MIN_PLUS):
            got = semiring_matmul(
                clique, x, x, semiring, with_witnesses=True, arena=arena
            )
            want = semiring_matmul(
                CongestedClique(n), x, x, semiring, with_witnesses=True
            )
            assert np.array_equal(got[0], want[0]), semiring.name
            assert np.array_equal(got[1], want[1]), semiring.name
        assert clique.executor.batches == [n, n, n]

    def test_witness_switch_recomputes(self):
        n = 27
        clique = CongestedClique(n, executor=SpyExecutor())
        arena = ExchangeArena()
        x = _distances(n)
        want_p, want_w = semiring_matmul(
            CongestedClique(n), x, x, MIN_PLUS, with_witnesses=True
        )
        for with_witnesses in (True, False, True):
            got = semiring_matmul(
                clique, x, x, MIN_PLUS, with_witnesses=with_witnesses, arena=arena
            )
            if with_witnesses:
                assert np.array_equal(got[0], want_p)
                assert np.array_equal(got[1], want_w)
            else:
                assert np.array_equal(got, want_p)
        assert clique.executor.batches == [n, n, n]

    @pytest.mark.parametrize("squaring", (True, False), ids=("square", "multiply"))
    def test_in_place_operand_edit_recomputes(self, squaring):
        n, q = 27, 3
        clique = CongestedClique(n, executor=SpyExecutor())
        arena = ExchangeArena()
        x = _distances(n)
        y = x if squaring else _distances(n, seed=4)
        semiring_matmul(clique, x, y, MIN_PLUS, with_witnesses=True, arena=arena)
        # Entry (0, 10) lies in block (0, 1).  As T-block (u2, u3) = (0, 1)
        # it feeds the q nodes (*, 0, 1); as S-block (u1, u2) = (0, 1) --
        # which it also is when squaring -- the q nodes (0, 1, *).
        y[0, 10] = 0
        got = semiring_matmul(
            clique, x, y, MIN_PLUS, with_witnesses=True, arena=arena
        )
        want = semiring_matmul(
            CongestedClique(n), x, y, MIN_PLUS, with_witnesses=True
        )
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])
        assert clique.executor.batches == [n, 2 * q if squaring else q]


class OneDroppedPiece(CongestedClique):
    """Delivers every exchange intact except one step-1 piece of one phase.

    The piece (the first one that crosses a link) arrives zeroed, as a
    dropped piece would; nothing else about the exchange changes.
    """

    def __init__(self, n: int, phase: str) -> None:
        super().__init__(n, executor=SpyExecutor())
        self.phase = f"{phase}/step1-distribute"

    def _deliver_batch(self, batch, cost, traffic):
        blocks = super()._deliver_batch(batch, cost, traffic)
        if cost.phase != self.phase:
            return blocks
        piece = int(np.flatnonzero(batch.src != batch.dst)[0])
        blocks = blocks.copy()
        blocks[piece] = 0
        return blocks


class TestDeliveredAsSent:
    """Reuse compares what a node received with what its senders held."""

    def _products(self, clique: CongestedClique, arena) -> list:
        x = _distances(27)
        return [
            semiring_matmul(
                clique, x, x, MIN_PLUS, with_witnesses=True, phase=f"p{i}",
                arena=arena if arena is not None else ExchangeArena(),
            )
            for i in range(3)
        ]

    def test_a_corrupted_delivery_is_recomputed_now_and_next_time(self):
        """Product 1 of three equal squarings gets one zeroed piece: its
        receiver recomputes on what arrived, and product 2 (delivered
        intact) recomputes again instead of reusing the corrupted one."""
        got_clique = OneDroppedPiece(27, "p1")
        got = self._products(got_clique, ExchangeArena())
        want = self._products(OneDroppedPiece(27, "p1"), None)
        for (gp, gw), (wp, ww) in zip(got, want):
            assert np.array_equal(gp, wp)
            assert np.array_equal(gw, ww)
        assert not np.array_equal(got[1][0], got[0][0]), "the drop must show"
        assert got_clique.executor.batches == [27, 1, 1]
