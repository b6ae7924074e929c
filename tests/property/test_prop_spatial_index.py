"""Property-based tests for the spatial grid index."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.geometry.spatial_index import UniformGridIndex

coord = st.floats(-5.0, 5.0, allow_nan=False, allow_infinity=False, width=32)


class TestIndexProperties:
    @given(
        arrays(np.float64, (40, 3), elements=coord),
        st.floats(0.2, 3.0),
        st.floats(0.2, 2.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_query_matches_brute_force(self, points, radius, cell):
        """The all-pairs sweep matches a double loop at any cell size."""
        index = UniformGridIndex(points, cell_size=cell)
        got = index.neighbor_pairs_array(radius)
        diff = points[:, None, :] - points[None, :, :]
        close = np.einsum("ijk,ijk->ij", diff, diff) <= radius * radius
        expected = np.column_stack(np.nonzero(np.triu(close, k=1)))
        np.testing.assert_array_equal(got, expected)

    @given(
        arrays(np.float64, (30, 3), elements=coord),
        st.floats(0.3, 2.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_pairs_symmetric_in_radius(self, points, radius):
        """neighbor_pairs_array emits only <=radius pairs, i<j."""
        index = UniformGridIndex(points, cell_size=1.0)
        pairs = index.neighbor_pairs_array(radius).tolist()
        for i, j in pairs:
            assert i < j
            assert np.linalg.norm(points[i] - points[j]) <= radius + 1e-12
