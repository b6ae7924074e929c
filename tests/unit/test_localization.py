"""Unit tests for local coordinate establishment."""

import numpy as np
import pytest

from repro.geometry.transforms import procrustes_disparity
from repro.network.graph import NetworkGraph
from repro.network.localization import (
    build_frames,
    establish_local_frame,
    frame_distance_residual,
    true_local_frame,
)
from repro.network.measurement import NoError, UniformAbsoluteError, measure_distances


@pytest.fixture
def dense_cluster(rng):
    """~25 nodes inside a ball of radius 1.2 (well cross-connected)."""
    pts = rng.uniform(-0.7, 0.7, size=(25, 3))
    return NetworkGraph(pts, radio_range=1.0)


class TestFrameStructure:
    def test_member_order(self, dense_cluster, rng):
        measured = measure_distances(dense_cluster, NoError(), rng)
        frame = establish_local_frame(dense_cluster, measured, 0, hops=2)
        assert frame.members[0] == 0
        one_hop = [int(v) for v in dense_cluster.neighbors(0)]
        assert frame.members[1 : 1 + frame.n_one_hop] == one_hop

    def test_one_hop_frame_excludes_two_hop(self, dense_cluster, rng):
        measured = measure_distances(dense_cluster, NoError(), rng)
        frame = establish_local_frame(dense_cluster, measured, 0, hops=1)
        assert len(frame.members) == 1 + frame.n_one_hop

    def test_two_hop_frame_superset(self, dense_cluster, rng):
        measured = measure_distances(dense_cluster, NoError(), rng)
        f1 = establish_local_frame(dense_cluster, measured, 0, hops=1)
        f2 = establish_local_frame(dense_cluster, measured, 0, hops=2)
        assert set(f1.members) <= set(f2.members)

    def test_coordinate_accessors(self, dense_cluster, rng):
        measured = measure_distances(dense_cluster, NoError(), rng)
        frame = establish_local_frame(dense_cluster, measured, 0)
        assert frame.origin_coordinates.shape == (3,)
        assert frame.neighbor_coordinates.shape == (frame.n_one_hop, 3)
        assert frame.collection_coordinates.shape == (len(frame.members) - 1, 3)


class TestFrameAccuracy:
    def test_exact_distances_recover_geometry(self, dense_cluster, rng):
        measured = measure_distances(dense_cluster, NoError(), rng)
        frame = establish_local_frame(dense_cluster, measured, 0)
        true_pts = dense_cluster.positions[np.asarray(frame.members)]
        assert procrustes_disparity(frame.coordinates, true_pts) < 0.02

    def test_residual_zero_without_error(self, dense_cluster, rng):
        measured = measure_distances(dense_cluster, NoError(), rng)
        frame = establish_local_frame(dense_cluster, measured, 0)
        assert frame_distance_residual(dense_cluster, frame) < 0.02

    def test_residual_grows_with_error(self, dense_cluster):
        rng = np.random.default_rng(0)
        clean = measure_distances(dense_cluster, NoError(), rng)
        noisy = measure_distances(
            dense_cluster, UniformAbsoluteError(0.4), np.random.default_rng(1)
        )
        f_clean = establish_local_frame(dense_cluster, clean, 0)
        f_noisy = establish_local_frame(dense_cluster, noisy, 0)
        assert frame_distance_residual(dense_cluster, f_noisy) > frame_distance_residual(
            dense_cluster, f_clean
        )

    def test_true_frame_is_exact(self, dense_cluster):
        frame = true_local_frame(dense_cluster, 3)
        assert frame_distance_residual(dense_cluster, frame) == pytest.approx(0.0)


class TestLocalFramesIterator:
    def test_yields_every_node(self, dense_cluster, rng):
        measured = measure_distances(dense_cluster, NoError(), rng)
        frames = list(build_frames(dense_cluster, measured, engine="pernode"))
        assert [f.node for f in frames] == list(range(dense_cluster.n_nodes))
        direct = establish_local_frame(dense_cluster, measured, 4)
        assert frames[4].members == direct.members
        assert frames[4].coordinates.tobytes() == direct.coordinates.tobytes()
