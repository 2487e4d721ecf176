"""Tests for the APSP family (Corollaries 6-8, Theorem 9)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from closure_replay import full_schedule, stopped_phases
from graph_reference import bfs_distances_reference
from hypothesis import strategies as st

from repro.constants import INF
from repro.distances import (
    apsp_approx,
    apsp_bounded,
    apsp_exact,
    apsp_small_diameter,
    apsp_unweighted,
    reachability,
)
from repro.clique import CongestedClique
from repro.errors import CliqueModelError, NegativeCycleError
from repro.graphs import (
    Graph,
    apsp_reference,
    cycle_graph,
    gnp_random_graph,
    grid_graph,
    random_weighted_digraph,
    random_weighted_graph,
    validate_routing_table,
)
from repro.matmul.exponent import fit_exponent
from repro.runtime import make_clique, pad_matrix


def path_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(v, v + 1) for v in range(n - 1)])


class TestExactApsp:
    @settings(max_examples=6, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_random_digraphs(self, seed):
        g = random_weighted_digraph(16, 0.3, 9, seed=seed)
        result = apsp_exact(g, with_routing_tables=False)
        assert np.array_equal(result.value, apsp_reference(g))

    @settings(max_examples=4, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_routing_tables_walk_correctly(self, seed):
        g = random_weighted_digraph(14, 0.35, 9, seed=seed)
        result = apsp_exact(g)
        assert np.array_equal(result.value, apsp_reference(g))
        assert validate_routing_table(g, result.value, result.extras["next_hop"])

    def test_undirected_weighted(self):
        g = random_weighted_graph(15, 0.4, 20, seed=2)
        result = apsp_exact(g)
        assert np.array_equal(result.value, apsp_reference(g))

    def test_negative_weights_no_cycle(self):
        g = Graph.from_weighted_edges(
            4, [(0, 1, 5), (1, 2, -2), (2, 3, 4), (0, 3, 10)], directed=True
        )
        result = apsp_exact(g)
        assert np.array_equal(result.value, apsp_reference(g))
        assert result.value[0, 3] == 7

    def test_negative_cycle_raises(self):
        g = Graph.from_weighted_edges(
            3, [(0, 1, 1), (1, 2, -5), (2, 0, 1)], directed=True
        )
        with pytest.raises(NegativeCycleError):
            apsp_exact(g)

    def test_weights_that_reach_inf_are_refused(self):
        """At 2^62 - 1 some reachable pairs would saturate to INF (38 of 144
        distances, and the int64 oracle agrees with the wrong answer), so
        the weight is refused, naming it and the bound."""
        g = random_weighted_digraph(12, 0.35, 2**62 - 1, seed=0)
        heavy = g.max_abs_weight()
        with pytest.raises(ValueError) as excinfo:
            apsp_exact(g)
        message = str(excinfo.value)
        assert f"edge weight {heavy} " in message
        assert "largest accepted weight is 419244183493398900" in message
        g.weights[g.weights == heavy] = -heavy  # the bound is on |w|
        with pytest.raises(ValueError, match="too large for n=12"):
            apsp_exact(g)

    def test_approx_refuses_weights_that_reach_inf(self):
        """Theorem 9 takes the same rule: at 2^62 - 1 the approximate
        product overflowed its float scaling and put 76 of 144 pairs outside
        ``[d, ratio_bound * d]``; at the largest accepted weight every pair
        is in bound against a Python-int Floyd-Warshall."""
        g = random_weighted_digraph(12, 0.35, 2**62 - 1, seed=0)
        with pytest.raises(ValueError) as excinfo:
            apsp_approx(g, delta=0.5)
        message = str(excinfo.value)
        assert f"edge weight {g.max_abs_weight()} " in message
        assert "largest accepted weight is 419244183493398900" in message

        g = random_weighted_digraph(12, 0.35, 419244183493398900, seed=0)
        result = apsp_approx(g, delta=0.5)
        w = g.weight_matrix()
        dist = [
            [int(w[u, v]) if w[u, v] < INF else None for v in range(12)]
            for u in range(12)
        ]
        for u in range(12):
            dist[u][u] = 0
        for k in range(12):
            for u in range(12):
                for v in range(12):
                    if dist[u][k] is not None and dist[k][v] is not None:
                        via = dist[u][k] + dist[k][v]
                        if dist[u][v] is None or via < dist[u][v]:
                            dist[u][v] = via
        bound = result.extras["ratio_bound"]
        for u in range(12):
            for v in range(12):
                got = int(result.value[u, v])
                if dist[u][v] is None:
                    assert got >= INF
                else:
                    assert dist[u][v] <= got <= bound * dist[u][v]

    def test_disconnected_pairs_infinite(self):
        g = Graph.from_weighted_edges(4, [(0, 1, 3)], directed=True)
        result = apsp_exact(g, with_routing_tables=False)
        assert result.value[0, 1] == 3
        assert result.value[1, 0] >= INF
        assert result.value[2, 3] >= INF

    @pytest.mark.parametrize("rows,cols", [(3, 4), (5, 5)])
    def test_grid_workload(self, rows, cols):
        g = grid_graph(rows, cols, max_weight=9, seed=1)
        result = apsp_exact(g)
        assert np.array_equal(result.value, apsp_reference(g))
        assert validate_routing_table(g, result.value, result.extras["next_hop"])

    @pytest.mark.parametrize("n", [27, 64, 125])
    def test_routing_tables_at_table1_sizes(self, n):
        """Table 1 "weighted directed APSP", with routing tables."""
        g = random_weighted_digraph(n, 0.3, 9, seed=n)
        result = apsp_exact(g)
        assert np.array_equal(result.value, apsp_reference(g))
        assert validate_routing_table(g, result.value, result.extras["next_hop"])

    def test_rounds_exponent(self):
        """O(n^{1/3} log n): clearly sub-half-power growth."""
        sizes = [27, 64, 125]
        rounds = [
            apsp_exact(
                random_weighted_digraph(n, 0.3, 9, seed=n),
                with_routing_tables=False,
            ).rounds
            for n in sizes
        ]
        assert fit_exponent(sizes, rounds) < 0.55

    @pytest.mark.parametrize(
        "with_routing_tables,rounds,words",
        [(True, 174, 54_756), (False, 150, 46_980)],
    )
    def test_bill_is_pinned(self, with_routing_tables, rounds, words):
        """Routing tables ride the session's resident closure and cost
        witness words; the plain closure ships none.  Squaring 3 is the
        first of the 5 allowed that changes nothing, so both loops stop
        there: the bill is the full schedule's first 4 squarings, each
        followed by its one-round flag."""
        g = random_weighted_graph(27, 0.3, max_weight=9, seed=0)
        with full_schedule() as loops:
            full = apsp_exact(g, with_routing_tables=with_routing_tables)
        result = apsp_exact(g, with_routing_tables=with_routing_tables)
        phases = result.meter.phases
        assert phases == stopped_phases(full.meter, loops)
        assert (result.rounds, result.meter.words, len(phases)) == (
            rounds, words, 12
        )
        assert [p.phase for p in phases] == [
            f"apsp/square{i}/{step}"
            for i in range(4)
            for step in ("step1-distribute", "step3-recombine", "stable")
        ]
        assert result.extras["squarings"] == 4
        assert np.array_equal(result.value, apsp_reference(g))
        if with_routing_tables:
            assert validate_routing_table(
                g, result.value, result.extras["next_hop"]
            )
        else:
            assert "next_hop" not in result.extras


class TestSeidel:
    @settings(max_examples=8, deadline=None)
    @given(
        st.integers(min_value=0, max_value=10**6),
        st.floats(min_value=0.1, max_value=0.6),
    )
    def test_random_graphs(self, seed, p):
        g = gnp_random_graph(18, p, seed=seed)
        result = apsp_unweighted(g)
        assert np.array_equal(result.value, bfs_distances_reference(g))

    def test_disconnected_graph(self):
        g = Graph.from_edges(6, [(0, 1), (1, 2), (3, 4)])
        result = apsp_unweighted(g)
        ref = bfs_distances_reference(g)
        assert np.array_equal(result.value, ref)
        assert result.value[0, 3] >= INF

    def test_path_graph_deep_recursion(self):
        n = 17
        g = Graph.from_edges(n, [(v, v + 1) for v in range(n - 1)])
        result = apsp_unweighted(g)
        assert np.array_equal(result.value, bfs_distances_reference(g))
        assert result.extras["levels"] >= 4  # diameter 16 -> ~log2 levels

    @pytest.mark.parametrize("n", [16, 49, 100, 196])
    def test_table1_sizes(self, n):
        """Table 1 "unweighted undirected APSP": Seidel in O~(n^rho)."""
        g = gnp_random_graph(n, 0.2, seed=n)
        result = apsp_unweighted(g)
        assert np.array_equal(result.value, bfs_distances_reference(g))

    def test_rounds_exponent(self):
        sizes = [16, 49, 100, 196]
        rounds = [
            apsp_unweighted(gnp_random_graph(n, 0.2, seed=n)).rounds
            for n in sizes
        ]
        assert fit_exponent(sizes, rounds) < 1.0

    def test_complete_graph_one_level(self):
        n = 9
        g = Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])
        result = apsp_unweighted(g)
        assert result.extras["levels"] == 1

    def test_directed_rejected(self):
        g = gnp_random_graph(8, 0.3, seed=0, directed=True)
        with pytest.raises(ValueError):
            apsp_unweighted(g)

    @pytest.mark.parametrize("shape", ["path", "cycle"])
    def test_depth_bound_never_trips_on_a_correct_run(self, shape):
        """The recursion bound ceil(log2 N) sits above every honest depth:
        on the naive engine the clique is exactly the graph, and paths and
        cycles are the deepest recursions at each N."""
        for n in range(3, 41):
            g = path_graph(n) if shape == "path" else cycle_graph(n)
            result = apsp_unweighted(g, method="naive")
            assert np.array_equal(result.value, bfs_distances_reference(g))
            assert result.extras["levels"] <= (n - 1).bit_length() + 1

    def test_corrupted_stable_bit_stops_at_the_depth_bound(self):
        """A stable bit that always arrives set would recurse forever; the
        level past ceil(log2 N) is refused by name."""

        class AlwaysChanged(CongestedClique):
            def _deliver_broadcast(self, pieces, owners, widths, phase):
                pieces = super()._deliver_broadcast(pieces, owners, widths, phase)
                return np.ones_like(pieces) if phase.endswith("/stable") else pieces

        g = path_graph(9)
        with pytest.raises(CliqueModelError, match=r"seidel/L4/stable"):
            apsp_unweighted(g, method="naive", clique=AlwaysChanged(9))


class TestBoundedApsp:
    @settings(max_examples=5, deadline=None)
    @given(
        st.integers(min_value=0, max_value=10**6),
        st.integers(min_value=2, max_value=12),
    )
    def test_cap_semantics(self, seed, cap):
        g = random_weighted_digraph(14, 0.4, 4, seed=seed)
        result = apsp_bounded(g, cap)
        ref = apsp_reference(g)
        want = np.where(ref <= cap, ref, INF)
        assert np.array_equal(result.value, want)

    @pytest.mark.parametrize("n", [16, 49, 100])
    def test_cap_8_at_table1_sizes(self, n):
        """Table 1 "APSP with weighted diameter U": O~(U n^rho)."""
        g = random_weighted_digraph(n, 0.6, 3, seed=n)
        result = apsp_bounded(g, 8)
        ref = apsp_reference(g)
        assert np.array_equal(result.value, np.where(ref <= 8, ref, INF))

    def test_rounds_grow_with_cap(self):
        """The U-factor of Lemma 19, measured: on one graph, every larger
        cap bills more rounds."""
        g = random_weighted_digraph(49, 0.6, 3, seed=5)
        rounds = [apsp_bounded(g, cap).rounds for cap in (2, 4, 8, 16)]
        assert all(a < b for a, b in zip(rounds, rounds[1:])), rounds

    def test_rejects_nonpositive_weights(self):
        g = Graph.from_weighted_edges(3, [(0, 1, 0)], directed=True)
        with pytest.raises(ValueError):
            apsp_bounded(g, 5)

    def test_rejects_bad_cap(self):
        g = random_weighted_digraph(9, 0.4, 3, seed=1)
        clique = make_clique(g.n, "bilinear")
        from repro.distances.bounded import apsp_up_to

        with pytest.raises(ValueError):
            apsp_up_to(clique, pad_matrix(g.weight_matrix(), clique.n, fill=INF), 0)


class TestSmallDiameterApsp:
    @settings(max_examples=4, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_exact_with_unknown_diameter(self, seed):
        g = random_weighted_digraph(14, 0.5, 3, seed=seed)
        result = apsp_small_diameter(g)
        assert np.array_equal(result.value, apsp_reference(g))

    @pytest.mark.parametrize("n,seed", [(16, 9), (49, 2)])
    def test_guess_close_to_diameter(self, n, seed):
        g = random_weighted_digraph(n, 0.6, 3, seed=seed)
        result = apsp_small_diameter(g)
        ref = apsp_reference(g)
        assert np.array_equal(result.value, ref)
        diameter = int(ref[ref < INF].max())
        guess = result.extras["diameter_guess"]
        assert guess >= diameter
        assert guess < 2 * max(1, diameter) + 2

    def test_reachability_matrix(self):
        g = Graph.from_edges(5, [(0, 1), (1, 2)], directed=True)
        clique = make_clique(g.n, "bilinear")
        reach = reachability(clique, pad_matrix(g.adjacency, clique.n))
        assert reach[0, 2] == 1
        assert reach[2, 0] == 0
        assert reach[3, 3] == 1


class TestApproxApsp:
    @settings(max_examples=4, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_ratio_bound_holds(self, seed):
        g = random_weighted_digraph(14, 0.4, 30, seed=seed)
        result = apsp_approx(g, delta=0.25)
        ref = apsp_reference(g)
        finite = ref < INF
        assert np.array_equal(result.value >= INF, ~finite)
        assert (result.value[finite] >= ref[finite]).all()
        ratios = result.value[finite] / np.maximum(ref[finite], 1)
        assert ratios.max() <= result.extras["ratio_bound"] + 1e-9

    @pytest.mark.parametrize("n", [16, 25])
    def test_ratio_within_bound_at_table1_sizes(self, n):
        """Table 1 "(1+o(1))-approximate APSP" (Theorem 9)."""
        g = random_weighted_digraph(n, 0.4, 20, seed=n)
        result = apsp_approx(g, delta=0.3)
        ref = apsp_reference(g)
        finite = ref < INF
        assert (result.value[finite] >= ref[finite]).all()
        ratios = result.value[finite] / np.maximum(ref[finite], 1)
        assert ratios.max() <= result.extras["ratio_bound"] + 1e-9

    def test_tighter_delta_costs_more(self):
        """Lemma 20's accuracy/rounds trade-off: each tighter delta bills
        more rounds for a smaller proven ratio, and every measured ratio is
        inside its bound."""
        g = random_weighted_digraph(16, 0.4, 20, seed=3)
        ref = apsp_reference(g)
        finite = ref < INF
        runs = [apsp_approx(g, delta=d) for d in (0.5, 0.3, 0.2, 0.15)]
        for loose, tight in zip(runs, runs[1:]):
            assert tight.rounds > loose.rounds
            assert tight.extras["ratio_bound"] < loose.extras["ratio_bound"]
        for run in runs:
            ratios = run.value[finite] / np.maximum(ref[finite], 1)
            assert ratios.max() <= run.extras["ratio_bound"] + 1e-9

    def test_zero_weights_allowed(self):
        g = Graph.from_weighted_edges(
            4, [(0, 1, 0), (1, 2, 5), (2, 3, 0)], directed=True
        )
        result = apsp_approx(g, delta=0.25)
        ref = apsp_reference(g)
        finite = ref < INF
        assert (result.value[finite] >= ref[finite]).all()

    def test_negative_weights_rejected(self):
        g = Graph.from_weighted_edges(3, [(0, 1, -2)], directed=True)
        with pytest.raises(ValueError):
            apsp_approx(g)
