"""Tests for Theorem 4: O(1)-round 4-cycle detection and the Lemma 12 tiling."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import (
    Graph,
    bipartite_random_graph,
    cycle_graph,
    four_cycle_count_reference,
    gnp_random_graph,
    grid_graph,
    planted_cycle_graph,
    preferential_attachment_graph,
    random_tree,
    windmill_graph,
)
from repro.matmul.exponent import fit_exponent
from repro.subgraphs import build_tiling, detect_four_cycles, tile_side


def _sparse_bipartite(n: int) -> Graph:
    # Constant average degree keeps C4 presence varied across sizes.
    return bipartite_random_graph(n, 4.0 / n, seed=n)


class TestTileSide:
    def test_zero_degree_no_tile(self):
        assert tile_side(0) == 0

    def test_small_degrees_get_unit_tiles(self):
        for deg in (1, 2, 3):
            assert tile_side(deg) == 1

    @given(st.integers(min_value=1, max_value=10**6))
    def test_side_bounds(self, deg):
        side = tile_side(deg)
        assert side >= max(1, deg / 8.0)  # Lemma 12: f(y) >= deg/8
        assert side <= max(1, deg / 4.0) or deg < 4
        assert side & (side - 1) == 0  # power of two

    @given(st.integers(min_value=1, max_value=10**6))
    def test_chunks_at_most_8(self, deg):
        import math

        side = tile_side(deg)
        assert math.ceil(deg / side) <= 8


class TestTiling:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=4, max_value=40))
    def test_tiles_disjoint_and_in_bounds(self, seed, n):
        g = gnp_random_graph(n, 0.4, seed=seed)
        degrees = g.degrees()
        if degrees.sum() == 0:
            return
        # The tiling is only promised under the pigeonhole precondition of
        # Theorem 4 (sum of deg^2 < 2 n^2); G(n, .4) satisfies it easily.
        if int((degrees**2).sum()) >= 2 * n * n:
            return
        tiles = build_tiling(degrees, n)
        k = 1 << (n.bit_length() - 1)
        occupied: set[tuple[int, int]] = set()
        for tile in tiles:
            assert tile.side == tile_side(int(degrees[tile.y]))
            for r in tile.rows:
                for c in tile.cols:
                    assert 0 <= r < k and 0 <= c < k
                    assert (r, c) not in occupied
                    occupied.add((r, c))

    def test_star_graph_tiling(self):
        # A hub of degree n-1 stresses the large-tile path.
        n = 32
        g = Graph.from_edges(n, [(0, v) for v in range(1, n)])
        tiles = build_tiling(g.degrees(), n)
        hub = next(t for t in tiles if t.y == 0)
        assert hub.side >= (n - 1) / 8

    @pytest.mark.parametrize("graph_name", ["gnp", "hub", "windmill"])
    def test_figure3_tiles(self, graph_name):
        """Figure 3 across degree profiles: Lemma 12's tiles are disjoint,
        at least deg/8 on a side, and fit in the k x k square."""
        n = 128
        if graph_name == "gnp":
            g = gnp_random_graph(n, 0.1, seed=2)
        elif graph_name == "hub":
            g = preferential_attachment_graph(n, attach=3, seed=3)
        else:
            g = windmill_graph(n + 1)
        degrees = g.degrees()[:n]
        k = 1 << (n.bit_length() - 1)
        occupied = np.zeros((k, k), dtype=bool)
        for tile in build_tiling(degrees, n):
            block = occupied[
                tile.row_start : tile.row_start + tile.side,
                tile.col_start : tile.col_start + tile.side,
            ]
            assert block.shape == (tile.side, tile.side)
            assert not block.any()
            block[:, :] = True
            assert tile.side >= max(1, int(degrees[tile.y]) / 8)

    def test_every_positive_degree_gets_a_tile(self):
        g = gnp_random_graph(20, 0.3, seed=1)
        tiles = build_tiling(g.degrees(), 20)
        tiled = {t.y for t in tiles}
        for y in range(20):
            if g.degrees()[y] > 0:
                assert y in tiled


class TestDetection:
    @settings(max_examples=15, deadline=None)
    @given(
        st.integers(min_value=0, max_value=10**6),
        st.floats(min_value=0.05, max_value=0.5),
    )
    def test_agrees_with_oracle_on_random_graphs(self, seed, p):
        g = gnp_random_graph(20, p, seed=seed)
        want = four_cycle_count_reference(g) > 0
        assert detect_four_cycles(g).value == want

    def test_negative_families(self):
        for g in (
            random_tree(40, seed=2),
            windmill_graph(33),
            cycle_graph(7),
        ):
            assert not detect_four_cycles(g).value

    def test_positive_families(self):
        for g in (
            cycle_graph(4),
            grid_graph(3, 3, max_weight=1, seed=0),
            planted_cycle_graph(50, 4, seed=1, extra_edge_prob=0.5),
        ):
            assert detect_four_cycles(g).value

    def test_dense_graph_uses_pigeonhole(self):
        g = gnp_random_graph(24, 0.9, seed=0)
        result = detect_four_cycles(g)
        assert result.value
        assert result.extras["phase"] == "pigeonhole"
        assert result.rounds <= 2

    def test_rounds_are_constant_in_n(self):
        rounds = []
        for n in (16, 32, 64, 128):
            g = bipartite_random_graph(n, 3.0 / n, seed=7)
            rounds.append(detect_four_cycles(g).rounds)
        # O(1): no growth trend; allow small wobble from degree profiles.
        assert max(rounds) <= min(rounds) + 12
        assert max(rounds) <= 40

    @pytest.mark.parametrize("n", [16, 36, 64, 100, 144, 196])
    def test_table1_sizes(self, n):
        """Table 1 "4-cycle detection": Theorem 4 agrees with the oracle."""
        g = _sparse_bipartite(n)
        assert detect_four_cycles(g).value == (four_cycle_count_reference(g) > 0)

    def test_flat_against_dolev_growth(self):
        """Theorem 4's O(1) rounds stay flat as n grows while Dolev et
        al.'s O(n^{1/2}) climb."""
        from repro.baselines import dolev_four_cycle_detect

        sizes = [16, 36, 64, 100]
        ours = [detect_four_cycles(_sparse_bipartite(n)).rounds for n in sizes]
        prior = [dolev_four_cycle_detect(_sparse_bipartite(n)).rounds for n in sizes]
        our_exp = fit_exponent(sizes, ours)
        assert our_exp < 0.2
        assert fit_exponent(sizes, prior) > our_exp

    def test_high_degree_hub_without_c4(self):
        g = windmill_graph(65)
        result = detect_four_cycles(g)
        assert not result.value
        assert result.extras["phase"] == "tiling"

    def test_directed_rejected(self):
        g = gnp_random_graph(8, 0.3, seed=0, directed=True)
        with pytest.raises(ValueError):
            detect_four_cycles(g)

    def test_two_parallel_paths(self):
        # The smallest C4 witness: two length-2 paths between x and z.
        g = Graph.from_edges(4, [(0, 1), (1, 2), (0, 3), (3, 2)])
        assert detect_four_cycles(g).value
