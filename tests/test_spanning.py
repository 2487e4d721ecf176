"""Spanner + MST workloads on the session API.

The equivalence suites the tentpole promises:

* the distributed Baswana--Sen spanner is pinned *edge-for-edge* against a
  centralised oracle consuming identical shared randomness, and its
  ``(2k-1)`` stretch bound is property-tested against the centralised APSP
  oracle (and NetworkX, when importable);
* the MST skeleton is pinned edge-identical against Kruskal under the
  encoded strict order (the MST is unique there, so KKT sampling cannot
  change the answer), with weight equality double-checked against NetworkX;
* serial and threaded executors must agree bit-for-bit on values, rounds
  and every meter entry;
* the constant-round phases of the skeleton (candidate broadcasts, label
  announcements, the F-light gather) are asserted constant across input
  sizes -- the O(1)-round claim the Jurdzinski--Nowicki structure is
  about.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.clique.model import CongestedClique
from repro.engine import EngineBindingError, required_clique_size
from repro.graphs import Graph
from repro.graphs.generators import (
    cycle_graph,
    gnp_random_graph,
    random_weighted_graph,
)
from repro.graphs.reference import apsp_reference
from repro.spanning import (
    baswana_sen_reference,
    build_spanner,
    minimum_spanning_forest,
    mst_reference,
    spanner_stretch,
)
from repro.spanning.mst import decode_edge, encode_weights

nx = pytest.importorskip("networkx", reason="NetworkX oracle unavailable")


def _nx_graph(graph: Graph):
    g = nx.Graph()
    g.add_nodes_from(range(graph.n))
    w = graph.weight_matrix()
    for u, v in zip(*np.nonzero(np.triu(graph.adjacency))):
        g.add_edge(int(u), int(v), weight=int(w[u, v]))
    return g


# --------------------------------------------------------------------- #
# Spanner
# --------------------------------------------------------------------- #


class TestSpannerOracle:
    @pytest.mark.parametrize("method", ["semiring", "naive"])
    @pytest.mark.parametrize("k", [2, 3])
    def test_matches_reference_edge_for_edge(self, method, k):
        g = random_weighted_graph(18, 0.4, max_weight=25, seed=11)
        result = build_spanner(g, k, method=method, seed=5)
        reference = baswana_sen_reference(g, k, seed=5)
        assert np.array_equal(result.value, reference)

    def test_engines_agree_on_rows_and_edges(self):
        g = random_weighted_graph(20, 0.3, max_weight=40, seed=2)
        a = build_spanner(g, 3, method="semiring", seed=9)
        b = build_spanner(g, 3, method="naive", seed=9)
        assert np.array_equal(a.value, b.value)

    def test_k1_returns_the_graph(self):
        g = random_weighted_graph(12, 0.5, max_weight=9, seed=0)
        result = build_spanner(g, 1, seed=0)
        assert np.array_equal(result.value, g.adjacency)

    def test_deterministic_by_default(self):
        g = gnp_random_graph(15, 0.3, seed=4)
        first = build_spanner(g, 2)
        second = build_spanner(g, 2)
        assert np.array_equal(first.value, second.value)
        assert first.rounds == second.rounds

    def test_rejects_directed_and_bilinear(self):
        directed = Graph.from_edges(4, [(0, 1), (1, 2)], directed=True)
        with pytest.raises(ValueError, match="undirected"):
            build_spanner(directed, 2)
        g = gnp_random_graph(9, 0.4, seed=1)
        with pytest.raises(EngineBindingError):
            build_spanner(g, 2, method="bilinear")
        with pytest.raises(ValueError, match="k must be >= 1"):
            build_spanner(g, 0)


class TestSpannerStretch:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    @pytest.mark.parametrize("k", [2, 3])
    def test_stretch_bound_weighted(self, seed, k):
        g = random_weighted_graph(22, 0.35, max_weight=50, seed=seed)
        result = build_spanner(g, k, seed=seed)
        assert result.extras["stretch_bound"] == 2 * k - 1
        assert spanner_stretch(g, result.value) <= 2 * k - 1 + 1e-9

    @pytest.mark.parametrize("seed", [5, 6, 7])
    def test_stretch_bound_unweighted(self, seed):
        g = gnp_random_graph(24, 0.25, seed=seed)
        result = build_spanner(g, 2, seed=seed)
        assert spanner_stretch(g, result.value) <= 3 + 1e-9

    def test_stretch_vs_networkx_shortest_paths(self):
        g = random_weighted_graph(18, 0.4, max_weight=30, seed=13)
        k = 2
        result = build_spanner(g, k, seed=13)
        sub = Graph(
            n=g.n,
            adjacency=result.value,
            weights=np.where(result.value > 0, g.weights, 0),
        )
        lengths = dict(nx.all_pairs_dijkstra_path_length(_nx_graph(sub)))
        w = g.weight_matrix()
        for u, v in zip(*np.nonzero(np.triu(g.adjacency))):
            assert lengths[int(u)][int(v)] <= (2 * k - 1) * int(w[u, v])

    def test_spanner_subgraph_and_size(self):
        # The spanner is a subgraph; on a sparse-ish graph the size stays
        # within a loose multiple of the k n^{1+1/k} expectation.
        g = gnp_random_graph(30, 0.3, seed=8)
        k = 3
        result = build_spanner(g, k, seed=8)
        assert not np.any((result.value > 0) & (g.adjacency == 0))
        bound = 4.0 * k * g.n ** (1.0 + 1.0 / k)
        assert result.extras["spanner_edges"] <= bound

    def test_disconnected_graph(self):
        g = gnp_random_graph(16, 0.08, seed=3)
        result = build_spanner(g, 2, seed=3)
        assert spanner_stretch(g, result.value) <= 3 + 1e-9


# --------------------------------------------------------------------- #
# MST
# --------------------------------------------------------------------- #


class TestMstOracle:
    @pytest.mark.parametrize("method", ["semiring", "naive"])
    @pytest.mark.parametrize("phases", [0, 1, 2])
    def test_matches_kruskal_edge_for_edge(self, method, phases):
        g = random_weighted_graph(18, 0.35, max_weight=40, seed=21)
        result = minimum_spanning_forest(
            g, method=method, seed=3, boruvka_phases=phases
        )
        edges, weight = mst_reference(g)
        assert result.extras["edges"] == edges
        assert result.extras["weight"] == weight

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_weight_matches_networkx(self, seed):
        g = random_weighted_graph(20, 0.3, max_weight=60, seed=seed)
        result = minimum_spanning_forest(g, seed=seed)
        tree = nx.minimum_spanning_tree(_nx_graph(g))
        nx_weight = sum(d["weight"] for _, _, d in tree.edges(data=True))
        assert result.extras["weight"] == nx_weight
        assert mst_reference(g)[1] == nx_weight

    def test_equal_weights_still_unique_under_encoding(self):
        # All weights tie; the endpoint encode makes the order strict, so
        # the distributed run and the oracle still agree edge-for-edge.
        g = gnp_random_graph(16, 0.4, seed=6)
        result = minimum_spanning_forest(g, seed=6)
        edges, weight = mst_reference(g)
        assert result.extras["edges"] == edges
        assert weight == len(edges)  # unit weights

    def test_spanning_forest_on_disconnected_input(self):
        g = gnp_random_graph(18, 0.08, seed=9)
        result = minimum_spanning_forest(g, seed=9)
        edges, weight = mst_reference(g)
        assert result.extras["edges"] == edges
        components = nx.number_connected_components(_nx_graph(g))
        assert len(edges) == g.n - components

    def test_cycle_graph_drops_heaviest_edge(self):
        n = 12
        weights = np.zeros((n, n), dtype=np.int64)
        adj = np.zeros((n, n), dtype=np.int64)
        for i in range(n):
            j = (i + 1) % n
            adj[i, j] = adj[j, i] = 1
            weights[i, j] = weights[j, i] = i + 1
        g = Graph(n=n, adjacency=adj, weights=weights)
        result = minimum_spanning_forest(g, seed=0)
        assert result.extras["weight"] == sum(range(1, n))  # drops weight n

    def test_sampling_probability_does_not_change_answer(self):
        g = random_weighted_graph(16, 0.4, max_weight=20, seed=5)
        edges, _ = mst_reference(g)
        for p in (0.25, 0.5, 1.0):
            result = minimum_spanning_forest(
                g, seed=1, sample_probability=p, boruvka_phases=1
            )
            assert result.extras["edges"] == edges

    def test_input_validation(self):
        directed = Graph.from_edges(4, [(0, 1)], directed=True)
        with pytest.raises(ValueError, match="undirected"):
            minimum_spanning_forest(directed)
        g = gnp_random_graph(8, 0.4, seed=0)
        with pytest.raises(ValueError, match="boruvka_phases"):
            minimum_spanning_forest(g, boruvka_phases=-1)
        with pytest.raises(ValueError, match="sample_probability"):
            minimum_spanning_forest(g, sample_probability=0.0)
        negative = Graph.from_weighted_edges(3, [(0, 1, -2)])
        with pytest.raises(ValueError, match="non-negative"):
            minimum_spanning_forest(negative)
        huge = Graph.from_weighted_edges(3, [(0, 1, 2**60)])
        with pytest.raises(ValueError, match="too large to encode"):
            minimum_spanning_forest(huge)

    def test_encode_decode_roundtrip(self):
        g = random_weighted_graph(13, 0.5, max_weight=90, seed=7)
        enc = encode_weights(g, 27)
        w = g.weight_matrix()
        for u, v in zip(*np.nonzero(g.adjacency)):
            weight, lo, hi = decode_edge(enc[u, v], 27)
            assert weight == w[u, v]
            assert (lo, hi) == (min(u, v), max(u, v))


class TestMstConstantRoundPhases:
    """The O(1)-round pieces of the skeleton, pinned across input sizes.

    The label closures and contraction products scale with ``n`` (they are
    the parts Jurdzinski--Nowicki replace with sketching); the candidate
    broadcasts, label announcements and the F-light gather are the
    constant-round collectives, and their charges must not grow with the
    input.
    """

    @staticmethod
    def _run(n: int, seed: int):
        g = random_weighted_graph(n, 0.3, max_weight=20, seed=seed)
        return minimum_spanning_forest(g, seed=seed, boruvka_phases=1)

    def test_constant_phase_rounds_across_sizes(self):
        small = self._run(16, 2).extras["phase_rounds"]
        large = self._run(40, 2).extras["phase_rounds"]
        # One announcement round per labelling, independent of n.
        assert small["labels_announce"] == large["labels_announce"] == 2
        # One fixed-width candidate broadcast per Boruvka/KKT step.
        assert small["boruvka_candidates"] == large["boruvka_candidates"]
        # The gather is O(R/n) rounds; with R = O(n) survivors that is a
        # constant, not a function of n.
        for rounds in (small["flight_gather"], large["flight_gather"]):
            assert rounds <= 12
        # The n-dependent phases are exactly the closures + contractions.
        assert small["labels_closure"] < large["labels_closure"]

    def test_phase_count_constant(self):
        for n in (12, 24, 36):
            result = self._run(n, 1)
            assert result.extras["phases"] == 2  # 1 Boruvka + 1 KKT


# --------------------------------------------------------------------- #
# Serial vs threaded executors
# --------------------------------------------------------------------- #


def _clique_pair(n: int, method: str):
    size = required_clique_size(n, method)
    return CongestedClique(size), CongestedClique(size, threads=2)


class TestThreadedParity:
    def test_spanner_bit_identical(self):
        g = random_weighted_graph(14, 0.4, max_weight=15, seed=4)
        serial_clique, threaded_clique = _clique_pair(14, "semiring")
        serial = build_spanner(g, 2, clique=serial_clique, seed=8)
        tiled = build_spanner(g, 2, clique=threaded_clique, seed=8)
        assert np.array_equal(serial.value, tiled.value)
        assert serial.rounds == tiled.rounds
        assert serial.meter.phases == tiled.meter.phases

    def test_mst_bit_identical(self):
        g = random_weighted_graph(14, 0.35, max_weight=25, seed=6)
        serial_clique, threaded_clique = _clique_pair(14, "semiring")
        serial = minimum_spanning_forest(g, clique=serial_clique, seed=2)
        tiled = minimum_spanning_forest(g, clique=threaded_clique, seed=2)
        assert np.array_equal(serial.value, tiled.value)
        assert serial.rounds == tiled.rounds
        assert serial.meter.phases == tiled.meter.phases
        assert serial.extras["phase_rounds"] == tiled.extras["phase_rounds"]


@pytest.mark.slow
class TestThreadedParitySlow:
    """Bigger threaded smoke, aligned with the executor-equivalence lane."""

    def test_spanner_and_mst_threaded(self):
        g = random_weighted_graph(40, 0.2, max_weight=40, seed=12)
        serial_clique, threaded_clique = _clique_pair(40, "semiring")
        serial = build_spanner(g, 3, clique=serial_clique, seed=3)
        tiled = build_spanner(g, 3, clique=threaded_clique, seed=3)
        assert np.array_equal(serial.value, tiled.value)
        assert serial.rounds == tiled.rounds
        serial_clique, threaded_clique = _clique_pair(40, "semiring")
        serial_mst = minimum_spanning_forest(g, clique=serial_clique, seed=3)
        tiled_mst = minimum_spanning_forest(g, clique=threaded_clique, seed=3)
        assert serial_mst.extras["edges"] == tiled_mst.extras["edges"]
        assert serial_mst.rounds == tiled_mst.rounds


# --------------------------------------------------------------------- #
# Round accounting sanity
# --------------------------------------------------------------------- #


class TestRoundAccounting:
    def test_spanner_charges_products_broadcasts_and_transposes(self):
        g = random_weighted_graph(12, 0.4, max_weight=10, seed=1)
        result = build_spanner(g, 3, seed=1)
        assert set(result.meter.by_phase_prefix()) == {"spanner"}
        labels = {p.phase for p in result.meter.phases}
        assert any(p.endswith("/recluster") for p in labels)
        assert any(p.endswith("/retire") for p in labels)
        assert "spanner/symmetrise" in labels
        # The recluster/retire collectives cost one round each, per level.
        for p in result.meter.phases:
            if p.phase.endswith(("/recluster", "/retire")):
                assert p.rounds == 1

    def test_mst_rounds_split_covers_total(self):
        g = random_weighted_graph(12, 0.4, max_weight=10, seed=2)
        result = minimum_spanning_forest(g, seed=2)
        assert result.rounds == sum(result.extras["phase_rounds"].values())

    def test_spanner_rounds_positive_and_metered(self):
        g = cycle_graph(10)
        result = build_spanner(g, 2, seed=0)
        assert result.rounds == result.meter.rounds
        assert result.rounds > 0

    def test_mst_vs_apsp_reference_connectivity(self):
        # The MSF connects exactly the pairs the graph connects.
        g = gnp_random_graph(15, 0.15, seed=14)
        result = minimum_spanning_forest(g, seed=14)
        original = apsp_reference(g)
        forest = apsp_reference(Graph(n=g.n, adjacency=result.value))
        from repro.constants import INF

        assert np.array_equal(original < INF, forest < INF)
