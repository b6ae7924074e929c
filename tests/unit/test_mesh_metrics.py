"""Unit tests for mesh quality metrics."""

import numpy as np
import pytest

from repro.evaluation.mesh_metrics import (
    evaluate_mesh,
    point_triangle_distance,
)
from repro.network.generator import Network
from repro.network.graph import NetworkGraph
from repro.surface.mesh import TriangularMesh


class TestPointTriangleDistance:
    TRI = ([0, 0, 0], [1, 0, 0], [0, 1, 0])

    def test_point_on_triangle(self):
        assert point_triangle_distance([0.2, 0.2, 0.0], *self.TRI) == pytest.approx(0.0)

    def test_point_above_interior(self):
        assert point_triangle_distance([0.2, 0.2, 0.7], *self.TRI) == pytest.approx(0.7)

    def test_point_nearest_vertex(self):
        assert point_triangle_distance([-1.0, -1.0, 0.0], *self.TRI) == pytest.approx(
            np.sqrt(2.0)
        )

    def test_point_nearest_edge(self):
        assert point_triangle_distance([0.5, -1.0, 0.0], *self.TRI) == pytest.approx(1.0)

    def test_point_beyond_hypotenuse(self):
        d = point_triangle_distance([1.0, 1.0, 0.0], *self.TRI)
        assert d == pytest.approx(np.sqrt(2) / 2)

    def test_point_on_edge_of_sliver(self):
        """A nearly collinear triangle still puts its own edge at distance 0."""
        a = np.array([0.828652442, 1.1920929e-07, 1.1920929e-07], dtype=np.float32)
        b = np.zeros(3)
        c = np.array([0.85231334, 0.0, 0.0], dtype=np.float32)
        a, c = a.astype(float), c.astype(float)
        on_edge = 0.3828125 * b + 0.6171875 * c
        assert point_triangle_distance(on_edge, a, b, c) < 1e-9


class TestEvaluateMesh:
    def _tetra_network(self):
        positions = np.array(
            [[0, 0, 0], [1, 0, 0], [0.5, 0.9, 0], [0.5, 0.3, 0.8]], dtype=float
        )
        graph = NetworkGraph(positions, radio_range=1.5)
        truth = np.ones(4, dtype=bool)
        return Network(graph=graph, truth_boundary=truth, scenario="tetra")

    def _tetra_mesh(self):
        mesh = TriangularMesh(vertices=[0, 1, 2, 3], group=[0, 1, 2, 3])
        for u in range(4):
            for v in range(u + 1, 4):
                mesh.add_edge(u, v, hop_length=1)
        return mesh

    def test_tetrahedron_quality(self):
        net = self._tetra_network()
        quality = evaluate_mesh(net, self._tetra_mesh())
        assert quality.n_vertices == 4
        assert quality.n_edges == 6
        assert quality.n_faces == 4
        assert quality.euler_characteristic == 2
        assert quality.is_two_manifold
        assert quality.two_faced_edge_fraction == 1.0
        assert quality.covered_fraction == 1.0
        # Every group node is a mesh vertex: zero deviation.
        assert quality.mean_deviation == pytest.approx(0.0, abs=1e-9)

    def test_deviation_for_offset_node(self):
        net = self._tetra_network()
        mesh = self._tetra_mesh()
        # Add a group node away from the mesh.
        positions = np.vstack([net.graph.positions, [[5.0, 5.0, 5.0]]])
        graph = NetworkGraph(positions, radio_range=1.5)
        net2 = Network(graph=graph, truth_boundary=np.ones(5, bool), scenario="t")
        mesh.group = [0, 1, 2, 3, 4]
        quality = evaluate_mesh(net2, mesh)
        assert quality.max_deviation > 5.0
        assert quality.covered_fraction == pytest.approx(0.8)

    def test_no_faces_no_deviation(self):
        net = self._tetra_network()
        mesh = TriangularMesh(vertices=[0, 1, 2, 3], group=[0, 1, 2, 3])
        mesh.add_edge(0, 1)
        quality = evaluate_mesh(net, mesh)
        assert quality.mean_deviation is None
        assert not quality.is_two_manifold

    def test_real_sphere_mesh_quality(self, sphere_network, sphere_detection):
        from repro.surface.pipeline import SurfaceBuilder

        meshes = SurfaceBuilder().build(
            sphere_network.graph, sphere_detection.groups
        )
        assert meshes
        quality = evaluate_mesh(sphere_network, meshes[0])
        assert quality.two_faced_edge_fraction > 0.9
        # Mesh deviation should be well under the landmark spacing (~k hops).
        assert quality.mean_deviation < 1.5
