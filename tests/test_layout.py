"""Tests for the §2.1/§2.2 index partitioning schemes."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from tuple_reference import grid_label, node_of_label, row_position

from repro.errors import CliqueSizeError
from repro.matmul.layout import (
    CubeLayout,
    GridLayout,
    exact_cbrt,
    exact_sqrt,
    next_cube,
    next_square,
)


class TestRoots:
    @given(st.integers(min_value=1, max_value=500))
    def test_exact_cbrt_consistent(self, q):
        assert exact_cbrt(q**3) == q

    def test_non_cubes(self):
        assert exact_cbrt(10) is None
        assert exact_sqrt(10) is None

    @given(st.integers(min_value=1, max_value=10**5))
    def test_next_cube_properties(self, n):
        cube = next_cube(n)
        assert cube >= n
        assert exact_cbrt(cube) is not None
        q = exact_cbrt(cube)
        assert (q - 1) ** 3 < n

    @given(st.integers(min_value=1, max_value=10**6))
    def test_next_square_properties(self, n):
        square = next_square(n)
        assert square >= n
        assert exact_sqrt(square) is not None


class TestCubeLayout:
    def test_rejects_non_cube(self):
        with pytest.raises(CliqueSizeError):
            CubeLayout.for_clique(10)

    def test_digits_roundtrip(self):
        layout = CubeLayout.for_clique(27)
        for v in range(27):
            assert layout.node(*layout.digits(v)) == v

    def test_first_digit_sets_partition_everything(self):
        layout = CubeLayout.for_clique(64)
        seen = []
        for x in range(4):
            start, stop = layout.first_digit_range(x)
            seen.extend(range(start, stop))
        assert seen == list(range(64))

    def test_block_slice_matches_digits(self):
        layout = CubeLayout.for_clique(27)
        for x in range(3):
            ids = range(*layout.first_digit_range(x))
            for v in ids:
                assert layout.digits(v)[0] == x


class TestGridLayout:
    def test_rejects_non_square(self):
        with pytest.raises(CliqueSizeError):
            GridLayout.for_clique(10, 2)

    def test_rejects_oversized_d(self):
        with pytest.raises(CliqueSizeError):
            GridLayout.for_clique(16, 5)

    def test_padded_size_covers_n(self):
        for n, d in [(16, 2), (49, 4), (100, 4), (256, 8)]:
            layout = GridLayout.for_clique(n, d)
            assert layout.m_padded >= n
            assert layout.m_padded == layout.d * layout.q * layout.c

    def test_labels_unique(self):
        layout = GridLayout.for_clique(49, 4)
        labels = {grid_label(layout, v) for v in range(49)}
        assert len(labels) == 49

    def test_label_roundtrip(self):
        layout = GridLayout.for_clique(36, 3)
        for v in range(36):
            assert node_of_label(layout, *grid_label(layout, v)) == v

    def test_cell_axis_indices_partition_padded_range(self):
        layout = GridLayout.for_clique(49, 4)
        seen = np.concatenate(
            [layout.indices_of_cell_axis(x) for x in range(layout.q)]
        )
        assert sorted(seen.tolist()) == list(range(layout.m_padded))

    def test_row_position_consistent_with_cell_indices(self):
        layout = GridLayout.for_clique(49, 4)
        for x in range(layout.q):
            for r in layout.indices_of_cell_axis(x):
                _i, x1, _t = row_position(layout, int(r))
                assert x1 == x
