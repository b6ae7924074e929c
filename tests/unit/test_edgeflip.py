"""Unit tests for the edge-flip step (Step V)."""

import numpy as np
import pytest

from repro.network.graph import NetworkGraph
from repro.surface.edgeflip import _apex_mst_edges, edge_flip
from repro.surface.hops import GroupHops
from repro.surface.mesh import TriangularMesh


def _line_hops(n=8):
    """Hop rows over a path graph 0 - 1 - .. - n-1."""
    positions = np.array([[0.9 * i, 0.0, 0.0] for i in range(n)])
    return GroupHops(NetworkGraph(positions, radio_range=1.0), range(n))


class TestApexMST:
    def test_three_apexes_drop_longest(self):
        lengths = {(0, 1): 1, (1, 2): 2, (0, 2): 5}

        def hop(u, v):
            return lengths[(min(u, v), max(u, v))]

        chosen = _apex_mst_edges([0, 1, 2], hop)
        assert sorted(chosen) == [(0, 1), (1, 2)]

    def test_single_apex_no_edges(self):
        assert _apex_mst_edges([7], lambda u, v: 1) == []

    def test_two_apexes_one_edge(self):
        assert _apex_mst_edges([3, 5], lambda u, v: 1) == [(3, 5)]


class TestEdgeFlip:
    def _saturated_mesh(self):
        """Paper's Fig. 5: edge AB with three faces ABC, ABD, ABE.

        Vertices double as graph nodes 0..4 laid on a line so hop lengths
        are well-defined: A=0, B=1, C=2, D=3, E=4.
        """
        mesh = TriangularMesh(vertices=[0, 1, 2, 3, 4], group=[0, 1, 2, 3, 4])
        for apex in (2, 3, 4):
            mesh.add_edge(0, apex)
            mesh.add_edge(1, apex)
        mesh.add_edge(0, 1)
        return mesh

    def test_saturated_edge_removed(self):
        mesh = self._saturated_mesh()
        edge_flip(mesh, _line_hops(5))
        assert not mesh.has_edge(0, 1)

    def test_result_has_no_saturated_edges(self):
        mesh = self._saturated_mesh()
        edge_flip(mesh, _line_hops(5))
        assert mesh.edges_with_face_count(3) == []

    def test_replacement_edges_among_apexes(self):
        mesh = self._saturated_mesh()
        edge_flip(mesh, _line_hops(5))
        # Apexes on the line: 2,3,4 -> the two shortest are (2,3) and (3,4).
        assert mesh.has_edge(2, 3)
        assert mesh.has_edge(3, 4)
        assert not mesh.has_edge(2, 4)

    def test_clean_mesh_untouched(self):
        mesh = TriangularMesh(vertices=[0, 1, 2, 3])
        for u in range(4):
            for v in range(u + 1, 4):
                mesh.add_edge(u, v, hop_length=1)
        before = set(mesh.edges)
        edge_flip(mesh, _line_hops(4))
        assert mesh.edges == before

    def test_flip_terminates_on_detected_boundary(
        self, sphere_network, sphere_detection
    ):
        """Edge flip must terminate and clear saturation on real data."""
        from repro.surface.cdm import build_cdm
        from repro.surface.cdg import build_cdg
        from repro.surface.landmarks import assign_voronoi_cells, elect_landmarks
        from repro.surface.triangulation import complete_triangulation

        group = sphere_detection.groups[0]
        hops = GroupHops(sphere_network.graph, group)
        landmarks = elect_landmarks(hops, 4)
        cells = assign_voronoi_cells(hops, landmarks)
        cdg = build_cdg(hops, cells)
        cdm = build_cdm(hops, cells, cdg)
        edges, paths = complete_triangulation(
            hops, landmarks, cdm, candidate_radius=8
        )
        mesh = TriangularMesh(vertices=landmarks, group=list(group))
        for u, v in sorted(edges):
            mesh.add_edge(u, v, path=paths.get((u, v)))
        edge_flip(mesh, hops)
        assert mesh.edges_with_face_count(3) == []
