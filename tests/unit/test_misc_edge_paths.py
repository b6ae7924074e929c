"""Remaining small code paths: empty profiles, empty stats, misc reprs."""

import numpy as np

from repro.core.ubf import candidates_from_outcomes
from repro.network.generator import Network
from repro.network.graph import NetworkGraph
from repro.network.stats import compute_network_stats
from repro.shapes.csg import Difference
from repro.shapes.pipe import BentPipe
from repro.shapes.solids import Sphere
from repro.shapes.terrain import UnderwaterTerrain


class TestEmptyProfiles:
    def test_candidates_from_empty(self):
        assert candidates_from_outcomes([]) == set()


class TestEmptyNetworkStats:
    def test_zero_node_network(self):
        graph = NetworkGraph(np.empty((0, 3)))
        network = Network(
            graph=graph,
            truth_boundary=np.zeros(0, dtype=bool),
            scenario="empty",
        )
        stats = compute_network_stats(network)
        assert stats.n_nodes == 0
        assert stats.avg_degree == 0.0
        assert stats.connected  # vacuously


class TestReprs:
    def test_shape_reprs_mention_parameters(self):
        assert "radius=1.0" in repr(Sphere(radius=1.0))
        assert "bend_radius=1.0" in repr(BentPipe())
        assert "depth=0.8" in repr(UnderwaterTerrain())
        combined = Difference(Sphere(), [Sphere(radius=0.3)])
        assert "Difference" in repr(combined)


class TestNetworkSummaryEdge:
    def test_summary_with_zero_degree_nodes(self):
        positions = np.array([[0.0, 0.0, 0.0], [10.0, 0.0, 0.0]])
        graph = NetworkGraph(positions, radio_range=1.0)
        network = Network(
            graph=graph,
            truth_boundary=np.zeros(2, dtype=bool),
            scenario="sparse",
        )
        summary = network.summary()
        assert "sparse" in summary
        assert "min 0" in summary
