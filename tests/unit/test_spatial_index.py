"""Unit tests for the uniform grid index."""

import numpy as np
import pytest

from repro.geometry.spatial_index import UniformGridIndex, auto_cell_size


class TestNeighborStructures:
    def test_pairs_match_brute_force(self, rng):
        points = rng.uniform(0, 4, size=(120, 3))
        index = UniformGridIndex(points, cell_size=1.0)
        pairs = set(map(tuple, index.neighbor_pairs_array(1.0).tolist()))
        expected = set()
        for i in range(len(points)):
            for j in range(i + 1, len(points)):
                if np.linalg.norm(points[i] - points[j]) <= 1.0:
                    expected.add((i, j))
        assert pairs == expected

    def test_boundary_inclusive(self):
        """A pair exactly ``radius`` apart is paired (the radius is inclusive)."""
        points = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        index = UniformGridIndex(points, cell_size=1.0)
        np.testing.assert_array_equal(index.neighbor_pairs_array(1.0), [[0, 1]])

    def test_len(self, rng):
        points = rng.uniform(0, 1, size=(17, 3))
        assert len(UniformGridIndex(points, 0.5)) == 17

    def test_invalid_cell_size(self):
        with pytest.raises(ValueError):
            UniformGridIndex(np.zeros((1, 3)), cell_size=0.0)


def brute_force_pairs_array(points, radius):
    """The (i, j)-lexicographic pair array a double loop emits."""
    diff = points[:, None, :] - points[None, :, :]
    close = np.einsum("ijk,ijk->ij", diff, diff) <= radius * radius
    i_idx, j_idx = np.nonzero(np.triu(close, k=1))
    return np.column_stack([i_idx, j_idx]).astype(np.int64)


class TestCellBoundarySweep:
    """Randomized sweeps that stress the 27-cell stencil's edge cases.

    Points are snapped onto and jittered around cell boundaries (including
    negative coordinates, where floor-division cell assignment differs from
    truncation), so pairs that straddle adjacent cells, land exactly on a
    face, or coincide are all exercised.  The vectorized sweep must emit
    byte-for-byte what the O(n^2) scan does.
    """

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_pairs_match_brute_force_on_cell_faces(self, seed):
        rng = np.random.default_rng(seed)
        cell = 1.0
        n = 160
        # Snap ~half the points to exact cell-face coordinates spanning
        # negative and positive cells; jitter the rest tightly around faces.
        grid = rng.integers(-3, 4, size=(n, 3)).astype(float) * cell
        jitter = rng.uniform(-1e-9, 1e-9, size=(n, 3))
        jitter[: n // 2] = 0.0
        points = grid + jitter + rng.uniform(-0.05, 0.05, size=(n, 3)) * (
            rng.random(size=(n, 1)) < 0.5
        )
        index = UniformGridIndex(points, cell_size=cell)
        got = index.neighbor_pairs_array(1.0)
        expected = brute_force_pairs_array(points, 1.0)
        np.testing.assert_array_equal(got, expected)

    @pytest.mark.parametrize("radius", [0.3, 1.0, 1.7])
    def test_pairs_match_brute_force_random_cloud(self, rng, radius):
        points = rng.uniform(-4, 4, size=(200, 3))
        index = UniformGridIndex(points, cell_size=auto_cell_size(radius))
        got = index.neighbor_pairs_array(radius)
        expected = brute_force_pairs_array(points, radius)
        np.testing.assert_array_equal(got, expected)

    def test_coincident_points_are_paired_once(self):
        points = np.array(
            [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]]
        )
        index = UniformGridIndex(points, cell_size=1.0)
        got = index.neighbor_pairs_array(1.0)
        expected = brute_force_pairs_array(points, 1.0)
        np.testing.assert_array_equal(got, expected)


class TestAutoCellSize:
    def test_matches_radius(self):
        assert auto_cell_size(0.25) == 0.25

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            auto_cell_size(0.0)
