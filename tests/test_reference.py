"""Cross-validation of the centralised reference oracles.

The distributed tests lean on these oracles, so the oracles themselves are
checked against *independent* methods (trace formulas vs enumeration,
BFS girth vs enumeration, Floyd-Warshall vs BFS on unit weights).
"""

from __future__ import annotations

import numpy as np
import pytest
from graph_reference import bfs_distances_reference
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constants import INF
from repro.errors import NegativeCycleError
from repro.graphs import (
    Graph,
    apsp_reference,
    count_cycles_brute,
    cycle_graph,
    four_cycle_count_reference,
    girth_reference,
    gnp_random_graph,
    triangle_count_reference,
    validate_routing_table,
)


class TestTriangleOracle:
    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_trace_equals_enumeration(self, seed):
        g = gnp_random_graph(14, 0.35, seed=seed)
        assert triangle_count_reference(g) == count_cycles_brute(g, 3)

    def test_directed_triangle(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2), (2, 0)], directed=True)
        assert triangle_count_reference(g) == 1
        g2 = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)], directed=True)
        assert triangle_count_reference(g2) == 0


class TestFourCycleOracle:
    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_codegree_equals_enumeration(self, seed):
        g = gnp_random_graph(12, 0.35, seed=seed)
        assert four_cycle_count_reference(g) == count_cycles_brute(g, 4)

    def test_single_c4(self):
        assert four_cycle_count_reference(cycle_graph(4)) == 1

    def test_k4_has_three_c4(self):
        g = Graph.from_edges(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
        assert four_cycle_count_reference(g) == 3


class TestCycleEnumeration:
    def test_cn_has_one_cycle(self):
        for k in (3, 5, 7):
            assert count_cycles_brute(cycle_graph(k), k) == 1
            assert count_cycles_brute(cycle_graph(k), k - 1 if k > 3 else 4) == 0

    def test_directed_cycle_counted_once(self):
        g = cycle_graph(5, directed=True)
        assert count_cycles_brute(g, 5) == 1

    def test_k_less_than_3_rejected(self):
        with pytest.raises(ValueError):
            count_cycles_brute(cycle_graph(4), 2)


class TestGirthOracle:
    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_girth_matches_enumeration(self, seed):
        g = gnp_random_graph(12, 0.25, seed=seed)
        girth = girth_reference(g)
        if girth >= INF:
            for k in range(3, 8):
                assert not count_cycles_brute(g, k)
        else:
            assert count_cycles_brute(g, girth) > 0
            for k in range(3, girth):
                assert not count_cycles_brute(g, k)

    def test_directed_girth_two(self):
        g = Graph.from_edges(4, [(0, 1), (1, 0)], directed=True)
        assert girth_reference(g) == 2


class TestApspOracle:
    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_floyd_warshall_matches_bfs_on_unit_weights(self, seed):
        g = gnp_random_graph(12, 0.3, seed=seed)
        assert np.array_equal(apsp_reference(g), bfs_distances_reference(g))

    def test_negative_cycle_detected(self):
        g = Graph.from_weighted_edges(
            3, [(0, 1, 1), (1, 2, -3), (2, 0, 1)], directed=True
        )
        with pytest.raises(NegativeCycleError):
            apsp_reference(g)

    def test_negative_edges_without_cycle(self):
        g = Graph.from_weighted_edges(3, [(0, 1, 5), (1, 2, -2)], directed=True)
        dist = apsp_reference(g)
        assert dist[0, 2] == 3


class TestRoutingTableValidator:
    def test_accepts_correct_table(self):
        g = Graph.from_weighted_edges(3, [(0, 1, 2), (1, 2, 3)], directed=True)
        dist = apsp_reference(g)
        hop = np.full((3, 3), -1, dtype=np.int64)
        hop[0, 1] = 1
        hop[0, 2] = 1
        hop[1, 2] = 2
        assert validate_routing_table(g, dist, hop)

    def test_rejects_wrong_hop(self):
        g = Graph.from_weighted_edges(3, [(0, 1, 2), (1, 2, 3)], directed=True)
        dist = apsp_reference(g)
        hop = np.full((3, 3), -1, dtype=np.int64)
        hop[0, 1] = 1
        hop[0, 2] = 2  # not an edge from 0
        hop[1, 2] = 2
        assert not validate_routing_table(g, dist, hop)
