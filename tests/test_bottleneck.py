"""Tests for the bottleneck (max-min) APSP extension."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from closure_replay import full_schedule, stopped_phases
from hypothesis import strategies as st

from repro.constants import INF
from repro.distances import (
    apsp_bottleneck,
    bottleneck_reference,
    validate_bottleneck_routing,
)
from repro.distances.bottleneck import capacity_matrix
from repro.graphs import (
    Graph,
    grid_graph,
    random_weighted_digraph,
    random_weighted_graph,
)


class TestCapacityMatrix:
    def test_conventions(self):
        g = Graph.from_weighted_edges(3, [(0, 1, 5)], directed=True)
        cap = capacity_matrix(g)
        assert cap[0, 1] == 5
        assert cap[1, 0] == -INF
        assert cap[0, 0] == INF

    def test_unweighted_unit_capacities(self):
        g = Graph.from_edges(3, [(0, 2)])
        assert capacity_matrix(g)[0, 2] == 1


class TestBottleneckApsp:
    @settings(max_examples=6, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_random_digraphs_match_reference(self, seed):
        g = random_weighted_digraph(14, 0.3, 20, seed=seed)
        result = apsp_bottleneck(g)
        assert np.array_equal(result.value, bottleneck_reference(g))

    @pytest.mark.parametrize("n", [27, 64, 125])
    def test_larger_digraphs_match_reference(self, n):
        """The semiring engine is generic: max-min products on the 3D
        engine, at the cube sizes."""
        g = random_weighted_digraph(n, 0.3, 50, seed=n)
        result = apsp_bottleneck(g)
        assert np.array_equal(result.value, bottleneck_reference(g))

    @settings(max_examples=4, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_undirected(self, seed):
        g = random_weighted_graph(16, 0.3, 15, seed=seed)
        result = apsp_bottleneck(g)
        assert np.array_equal(result.value, bottleneck_reference(g))

    def test_widest_path_dominates_direct_edge(self):
        # 0 -> 1 directly with capacity 1, or via 2 with bottleneck 5.
        g = Graph.from_weighted_edges(
            3, [(0, 1, 1), (0, 2, 9), (2, 1, 5)], directed=True
        )
        result = apsp_bottleneck(g)
        assert result.value[0, 1] == 5

    def test_unreachable_pairs(self):
        g = Graph.from_weighted_edges(4, [(0, 1, 3)], directed=True)
        result = apsp_bottleneck(g)
        assert result.value[1, 0] == -INF
        assert result.value[2, 3] == -INF

    def test_routing_tables_walk_widest_paths(self):
        for seed in (0, 1, 2):
            g = random_weighted_digraph(12, 0.35, 9, seed=seed)
            result = apsp_bottleneck(g, with_routing_tables=True)
            assert np.array_equal(result.value, bottleneck_reference(g))
            assert validate_bottleneck_routing(
                g, result.value, result.extras["next_hop"]
            )

    def test_routed_bill_is_pinned(self):
        """Squaring 3 is the first of the 5 allowed that changes nothing:
        the bill is the full schedule's first 4 squarings, each followed
        by its one-round flag."""
        g = random_weighted_graph(27, 0.3, max_weight=9, seed=0)
        with full_schedule() as loops:
            full = apsp_bottleneck(g, with_routing_tables=True)
        result = apsp_bottleneck(g, with_routing_tables=True)
        phases = result.meter.phases
        assert phases == stopped_phases(full.meter, loops)
        assert (result.rounds, result.meter.words, len(phases)) == (
            296, 68_202, 12
        )
        assert [p.phase for p in phases] == [
            f"bottleneck/square{i}/{step}"
            for i in range(4)
            for step in ("step1-distribute", "step3-recombine", "stable")
        ]
        assert result.extras["squarings"] == 4
        assert np.array_equal(result.value, bottleneck_reference(g))
        assert validate_bottleneck_routing(
            g, result.value, result.extras["next_hop"]
        )

    def test_grid_capacities(self):
        g = grid_graph(3, 4, max_weight=9, seed=5)
        result = apsp_bottleneck(g)
        assert np.array_equal(result.value, bottleneck_reference(g))

    def test_rounds_match_exact_apsp_shape(self):
        # Same engine, same squaring count as Corollary 6.
        g = random_weighted_digraph(16, 0.3, 9, seed=7)
        result = apsp_bottleneck(g)
        assert result.extras["squarings"] == 4  # ceil(log2 16)
        assert result.rounds > 0
