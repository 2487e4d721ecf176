"""Round bills of fixed workloads, pinned number for number.

Each test runs one seeded workload through the public API, checks its
answer against a centralised oracle, and pins the simulated round bill for
exact equality: bills are deterministic for fixed inputs, so any drift is
a behaviour change, never noise.  These were the exact-rounds rows of the
retired kernel micro-benchmark (``benchmarks/perf_report.py``), on the same
inputs.  Its other exact rows live next to their subsystems: the coded
closure bills in ``test_faults.py::TestCodedClosureBill`` (and, through the
observational suite of ``test_netsim.py``, the priced closures) and the
ring relay placement in ``test_netsim.py``.

Every workload here runs closure loops, which stop after the first
squaring that changes nothing; each pin is also asserted equal to its
derivation from the full schedule (``tests/closure_replay.py``).

The n=512 pins are ``slow``; CI runs them in its slow lane.
"""

from __future__ import annotations

import numpy as np
import pytest
from closure_replay import full_schedule, stopped_phases

from repro.algebra.semirings import BOOLEAN, MIN_PLUS
from repro.clique.model import CongestedClique
from repro.constants import INF
from repro.distances import apsp_exact, girth_directed
from repro.engine import EngineSession, make_clique, open_session
from repro.graphs import Graph, apsp_reference, random_weighted_graph
from repro.runtime import pad_matrix
from repro.serve import ClosureArtifact, apply_edge_updates
from repro.spanning import (
    build_spanner,
    minimum_spanning_forest,
    mst_reference,
    spanner_stretch,
)


class TestSpanningBills:
    """n=48, edge probability 0.25, weights up to 40, graph and run seed 5."""

    @staticmethod
    def _graph():
        return random_weighted_graph(48, 0.25, max_weight=40, seed=5)

    def test_spanner_session(self):
        graph = self._graph()
        result = build_spanner(graph, 3, seed=5)
        assert spanner_stretch(graph, result.value) <= 2 * 3 - 1 + 1e-9
        assert result.rounds == 305

    def test_mst_session(self):
        """Three label closures: the first changes nothing at squaring 0,
        the others stop after squarings 3 and 4 of the 6 allowed."""
        graph = self._graph()
        with full_schedule() as loops:
            full = minimum_spanning_forest(graph, seed=5)
        result = minimum_spanning_forest(graph, seed=5)
        edges, weight = mst_reference(graph)
        assert result.extras["edges"] == edges
        assert result.extras["weight"] == weight == 244
        assert [loop.stop for loop in loops] == [1, 4, 5]
        assert result.meter.phases == stopped_phases(full.meter, loops)
        assert (full.rounds, result.rounds) == (1004, 822)


class TestSessionBills:
    def test_girth_directed_cycle(self):
        """A directed 216-cycle: girth 216, so the Boolean doubling and
        binary search run their full ~2 log n products."""
        n = 216
        graph = Graph.from_edges(
            n, [(i, (i + 1) % n) for i in range(n)], directed=True
        )
        result = girth_directed(
            graph, method="semiring", clique=CongestedClique(n)
        )
        assert result.value == n
        assert result.rounds == 556

    @pytest.mark.slow
    def test_apsp_exact_n512(self):
        """Squaring 4 is the first of the 9 allowed that changes nothing."""
        graph = random_weighted_graph(512, 0.05, max_weight=100, seed=2)
        with full_schedule() as loops:
            full = apsp_exact(graph, clique=CongestedClique(512))
        result = apsp_exact(graph, clique=CongestedClique(512))
        assert np.array_equal(result.value, apsp_reference(graph))
        assert result.meter.phases == stopped_phases(full.meter, loops)
        assert result.extras["squarings"] == 5
        assert (full.rounds, result.rounds) == (816, 565)

    @pytest.mark.slow
    def test_packed_boolean_closure_n512(self):
        # The seed matrix was the seventh draw of one generator; the six
        # before it made the benchmark's kernel operands.
        rng = np.random.default_rng(12)
        operands = (512, 64, 64)
        rng.integers(0, 1000, operands, dtype=np.int64)
        rng.integers(0, 1000, operands, dtype=np.int64)
        for _ in range(4):
            rng.random(operands)
        seed_matrix = (rng.random((512, 512)) < 0.004).astype(np.int64)
        with open_session(512, "semiring", BOOLEAN) as full, full_schedule() as loops:
            full.closure(seed_matrix)
        with open_session(512, "semiring", BOOLEAN) as session:
            closure = session.closure(seed_matrix)
            assert session.meter.phases == stopped_phases(full.meter, loops)
            assert (full.rounds, session.rounds) == (432, 294)
        reach = seed_matrix > 0
        for _ in range(9):
            step = reach.astype(np.float32) @ reach.astype(np.float32)
            reach = reach | (step > 0.5)
        assert np.array_equal(closure, reach.astype(np.int64))


class TestServeBills:
    def test_delta_update_against_rebuild(self):
        """A 4-edge decrease batch at n=64: the dirty-strip delta arm bills
        72 rounds where a forced rebuild bills 212, for equal closures."""
        with full_schedule() as loops:
            full = self._delta_and_rebuild()
        got = self._delta_and_rebuild()
        for session, replayed in zip(got[:2], full[:2]):
            assert session.meter.phases == stopped_phases(replayed.meter, loops)
        delta, rebuild = got[2:]
        assert (full[3].rounds, delta.rounds, rebuild.rounds) == (272, 72, 212)

    @staticmethod
    def _delta_and_rebuild():
        """Two closed sessions; one folds the batch in, one rebuilds."""
        n = 64
        graph = random_weighted_graph(n, 0.3, max_weight=50, seed=9)
        # The benchmark drew 2 x 10,000 query endpoints from this generator
        # before the updates.
        rng = np.random.default_rng(21)
        rng.integers(0, 512, 10_000)
        rng.integers(0, 512, 10_000)

        def closed_session():
            session = EngineSession(
                make_clique(n, "semiring"), "semiring", MIN_PLUS
            )
            weights = pad_matrix(graph.weight_matrix(), session.n, fill=INF)
            session.seed_resident(weights)
            session.resident_closure()
            return session, weights

        fast, w_fast = closed_session()
        slow, w_slow = closed_session()
        updates: list[tuple[int, int, int]] = []
        while len(updates) < 4:
            u, v = (int(x) for x in rng.integers(0, n, 2))
            if u == v:
                continue
            current = int(w_fast[u, v])
            if current >= INF:
                updates.append((u, v, 1))  # insertion
            elif current > 1:
                updates.append((u, v, current - 1))  # decrease
        delta = apply_edge_updates(fast, w_fast, updates)
        rebuild = apply_edge_updates(slow, w_slow, updates, force_rebuild=True)
        assert delta.mode == "delta" and rebuild.mode == "rebuild"
        assert np.array_equal(fast.resident.dist, slow.resident.dist)
        assert delta.dirty == 8
        return fast, slow, delta, rebuild

    @pytest.mark.slow
    def test_artifact_build_n512(self, tmp_path):
        graph = random_weighted_graph(512, 0.02, max_weight=100, seed=7)
        full = EngineSession(make_clique(512, "semiring"), "semiring", MIN_PLUS)
        with full_schedule() as loops:
            ClosureArtifact.build(full, graph, tmp_path / "full-512")
        session = EngineSession(make_clique(512, "semiring"), "semiring", MIN_PLUS)
        built = ClosureArtifact.build(session, graph, tmp_path / "closure-512")
        assert session.meter.phases == stopped_phases(full.meter, loops)
        assert (full.meter.rounds, built.rounds) == (960, 709)
        opened = ClosureArtifact.open(tmp_path / "closure-512")
        assert opened.rounds == 709
        assert opened.manifest["squarings"] == loops[0].stop == 5
        assert np.array_equal(np.asarray(opened.dist), apsp_reference(graph))
