"""End-to-end integration tests across the whole stack.

These exercise the composition paths a downstream user hits: different
matmul engines feeding the same application, the schedule certifier
underneath a full application run, witness machinery driving routing tables
on the ring engine, and the cost meter surviving multi-algorithm pipelines.
"""

from __future__ import annotations

import numpy as np
import pytest
from graph_reference import bfs_distances_reference
from schedule_reference import certify

from repro import (
    INF,
    CongestedClique,
    apsp_exact,
    apsp_unweighted,
    count_triangles,
    detect_four_cycles,
    girth_undirected,
    make_clique,
)
from repro.graphs import (
    apsp_reference,
    cycle_with_trees,
    gnp_random_graph,
    grid_graph,
    preferential_attachment_graph,
    random_weighted_digraph,
    triangle_count_reference,
    validate_routing_table,
)
from repro.matmul.distance import distance_product_ring
from repro.matmul.witnesses import find_witnesses


class TestCrossEngineAgreement:
    def test_triangles_same_answer_all_engines(self):
        g = gnp_random_graph(22, 0.3, seed=17)
        want = triangle_count_reference(g)
        for method in ("bilinear", "semiring", "naive"):
            assert count_triangles(g, method=method).value == want

    def test_engines_differ_in_rounds_at_scale(self):
        g = gnp_random_graph(100, 0.1, seed=3)
        fast = count_triangles(g, method="bilinear")
        naive = count_triangles(g, method="naive")
        assert fast.value == naive.value
        assert fast.rounds < naive.rounds


class TestCertifiedBillsUnderApplications:
    def test_triangle_count_bills_are_certified(self):
        g = gnp_random_graph(12, 0.35, seed=5)
        clique = make_clique(g.n, "bilinear")
        certifier = certify(clique)
        result = count_triangles(g, clique=clique)
        assert result.value == triangle_count_reference(g)
        assert result.rounds == count_triangles(g).rounds
        assert certifier.total == len(clique.meter.phases)

    def test_four_cycle_detection_bills_are_certified(self):
        g = gnp_random_graph(14, 0.3, seed=8)
        from repro.graphs import four_cycle_count_reference

        clique = CongestedClique(g.n)
        certifier = certify(clique)
        result = detect_four_cycles(g, clique=clique)
        assert result.value == (four_cycle_count_reference(g) > 0)
        assert result.rounds == detect_four_cycles(g).rounds
        assert certifier.total == len(clique.meter.phases)


class TestRingEngineRoutingTables:
    def test_witnesses_build_valid_one_hop_tables(self):
        """§3.3 + §3.4 end to end on the ring engine.

        One distance-product squaring of a small-weight digraph, witnesses
        extracted by Lemma 21, and the resulting midpoints verified to lie
        on optimal two-hop paths.
        """
        n = 16
        g = random_weighted_digraph(n, 0.4, 3, seed=21)
        w = g.weight_matrix()
        clique = CongestedClique(n)

        def engine(a, b, phase):
            return distance_product_ring(clique, a, b, 6, phase=phase)

        product = engine(w, w, "full")
        result = find_witnesses(
            clique, w, w, engine, p=product, rng=np.random.default_rng(4)
        )
        assert result.resolved.all()
        for u in range(n):
            for v in range(n):
                if product[u, v] < INF:
                    mid = int(result.witnesses[u, v])
                    assert w[u, mid] + w[mid, v] == product[u, v]


class TestRealisticWorkloads:
    def test_social_network_pipeline(self):
        """The paper's motivating workload: subgraph stats on a social graph."""
        g = preferential_attachment_graph(36, attach=2, seed=11)
        tri = count_triangles(g)
        c4 = detect_four_cycles(g)
        assert tri.value == triangle_count_reference(g)
        assert isinstance(c4.value, bool)
        assert tri.rounds > 0 and c4.rounds > 0

    def test_road_network_pipeline(self):
        g = grid_graph(4, 4, max_weight=9, seed=7)
        exact = apsp_exact(g)
        assert np.array_equal(exact.value, apsp_reference(g))
        assert validate_routing_table(g, exact.value, exact.extras["next_hop"])

    def test_unweighted_vs_weighted_consistency(self):
        g = gnp_random_graph(20, 0.25, seed=13)
        seidel = apsp_unweighted(g)
        exact = apsp_exact(g, with_routing_tables=False)
        assert np.array_equal(seidel.value, exact.value)
        assert np.array_equal(seidel.value, bfs_distances_reference(g))

    def test_girth_pipeline_sparse(self):
        g = cycle_with_trees(40, 9, seed=19)
        result = girth_undirected(g)
        assert result.value == 9


class TestMeterHygiene:
    def test_phases_compose_across_algorithms(self):
        g = gnp_random_graph(16, 0.3, seed=2)
        clique = make_clique(g.n, "bilinear")
        count_triangles(g, clique=clique)
        mark = clique.meter.snapshot()
        count_triangles(g, clique=clique)
        # Re-running the same algorithm on the same clique charges the same.
        assert clique.meter.rounds_since(mark) * 2 == clique.rounds

    def test_phase_labels_group(self):
        g = gnp_random_graph(16, 0.3, seed=2)
        result = count_triangles(g)
        groups = result.meter.by_phase_prefix()
        assert any(key.startswith("triangles") for key in groups)

    def test_deterministic_rounds(self):
        g = gnp_random_graph(25, 0.3, seed=4)
        a = count_triangles(g)
        b = count_triangles(g)
        assert a.rounds == b.rounds
        assert a.value == b.value
