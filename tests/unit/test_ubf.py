"""Unit tests for the Unit Ball Fitting phase."""

import numpy as np
import pytest

from repro.core.config import UBFConfig
from repro.core.ubf import (
    candidates_from_outcomes,
    run_ubf,
    ubf_classify_frame,
)
from repro.network.generator import Network
from repro.network.graph import NetworkGraph
from repro.network.localization import true_frames, true_local_frame
from repro.network.measurement import NoError, measure_distances


def _grid_slab_network():
    """A 5x5x3 grid slab: top/bottom layers are its z-boundary."""
    pts = []
    for x in range(5):
        for y in range(5):
            for z in range(3):
                pts.append([x * 0.55, y * 0.55, z * 0.55])
    positions = np.array(pts)
    graph = NetworkGraph(positions, radio_range=1.0)
    truth = np.array([p[2] in (0.0, 2 * 0.55) for p in pts])
    return Network(graph=graph, truth_boundary=truth, scenario="slab")


class TestRunUBF:
    def test_every_node_gets_an_outcome(self):
        net = _grid_slab_network()
        outcomes = run_ubf(net, UBFConfig())
        assert [o.node for o in outcomes] == list(range(net.n_nodes))

    def test_all_slab_nodes_are_boundary(self):
        """In a 3-layer slab every node touches the outer boundary region."""
        net = _grid_slab_network()
        outcomes = run_ubf(net, UBFConfig())
        # Top and bottom layer nodes must all be found.
        for o in outcomes:
            if net.truth_boundary[o.node]:
                assert o.is_candidate

    def test_sphere_truth_boundary_found(self, sphere_network):
        outcomes = run_ubf(sphere_network, UBFConfig())
        candidates = candidates_from_outcomes(outcomes)
        truth = sphere_network.truth_boundary_set
        missing = truth - candidates
        assert len(missing) <= 0.02 * len(truth)

    def test_deep_interior_not_flagged(self, sphere_network):
        """Nodes far (3+ hops) from the surface should not be candidates."""
        outcomes = run_ubf(sphere_network, UBFConfig())
        candidates = candidates_from_outcomes(outcomes)
        truth = sphere_network.truth_boundary_set
        hops = sphere_network.graph.bfs_hops(sorted(truth))
        deep = {n for n, h in hops.items() if h >= 3}
        assert len(candidates & deep) <= max(2, 0.02 * len(deep))

    def test_mds_without_measurements_raises(self, sphere_network):
        with pytest.raises(ValueError):
            run_ubf(sphere_network, UBFConfig(), localization="mds")

    def test_unknown_localization_rejected(self, sphere_network):
        with pytest.raises(ValueError):
            run_ubf(sphere_network, UBFConfig(), localization="nope")

    def test_frames_with_nodes_rejected(self, sphere_network):
        frames = true_frames(sphere_network.graph, [3, 1])
        outcomes = run_ubf(sphere_network, UBFConfig(), frames=frames)
        assert outcomes.node.tolist() == [3, 1]
        with pytest.raises(ValueError, match="not both"):
            run_ubf(sphere_network, UBFConfig(), frames=frames, nodes=[3, 1])

    def test_mds_matches_true_under_perfect_ranging(self):
        net = _grid_slab_network()
        measured = measure_distances(net.graph, NoError(), np.random.default_rng(0))
        truth_outcomes = run_ubf(net, UBFConfig(), localization="true")
        mds_outcomes = run_ubf(
            net, UBFConfig(), measured=measured, localization="mds"
        )
        truth_set = candidates_from_outcomes(truth_outcomes)
        mds_set = candidates_from_outcomes(mds_outcomes)
        # Perfect ranging must reproduce the true-coordinate answer almost
        # exactly (MDS is exact up to rigid motion on exact distances).
        disagreement = len(truth_set ^ mds_set)
        assert disagreement <= max(1, 0.02 * net.n_nodes)

    def test_find_first_leq_exhaustive(self, sphere_network):
        first = run_ubf(sphere_network, UBFConfig(), find_first=True)
        full = run_ubf(sphere_network, UBFConfig(), find_first=False)
        for a, b in zip(first, full):
            assert a.is_candidate == b.is_candidate
            assert a.balls_tested <= b.balls_tested


class TestBallRadiusKnob:
    def test_larger_radius_detects_fewer_nodes(self, sphere_network):
        small = candidates_from_outcomes(
            run_ubf(sphere_network, UBFConfig(ball_radius=1.001))
        )
        large = candidates_from_outcomes(
            run_ubf(sphere_network, UBFConfig(ball_radius=1.8))
        )
        # A bigger empty ball is harder to fit: candidates shrink (weakly
        # for outer boundaries, strongly for small holes).
        assert len(large) <= len(small)


class TestClassifyFrame:
    def test_boundary_frame(self, sphere_network):
        truth = sorted(sphere_network.truth_boundary_set)
        frame = true_local_frame(sphere_network.graph, truth[0])
        assert ubf_classify_frame(frame, 1.001).is_boundary
