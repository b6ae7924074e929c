"""Unit tests for the hole-patching pass."""

import numpy as np

from repro.network.graph import NetworkGraph
from repro.surface.holepatch import _find_open_cycle, patch_holes
from repro.surface.hops import GroupHops
from repro.surface.mesh import TriangularMesh


def _octahedron_nodes_graph():
    """Six nodes placed so all hop lengths are defined (complete-ish graph)."""
    pts = np.array(
        [
            [0.5, 0, 0],
            [-0.5, 0, 0],
            [0, 0.5, 0],
            [0, -0.5, 0],
            [0, 0, 0.5],
            [0, 0, -0.5],
        ]
    )
    return NetworkGraph(pts, radio_range=1.5)


class TestFindOpenCycle:
    def test_square_cycle_found(self):
        cycle = _find_open_cycle([(0, 1), (1, 2), (2, 3), (0, 3)])
        assert cycle is not None
        assert sorted(cycle) == [0, 1, 2, 3]

    def test_path_has_no_cycle(self):
        assert _find_open_cycle([(0, 1), (1, 2), (2, 3)]) is None

    def test_empty(self):
        assert _find_open_cycle([]) is None


class TestPatchHoles:
    def test_square_hole_gets_diagonal(self):
        """An open quad ring plus surrounding closed faces gets a diagonal.

        Build an octahedron missing the equatorial diagonals: vertices
        0..5, top apex 4 and bottom apex 5 connected to equator 0,2,1,3.
        The equatorial ring edges each have 2 faces already; remove apex 5
        edges to leave the lower faces open.
        """
        graph = _octahedron_nodes_graph()
        mesh = TriangularMesh(vertices=[0, 1, 2, 3, 4], group=[0, 1, 2, 3, 4, 5])
        # Equator ring 0-2-1-3 plus apex 4 connected to all.
        ring = [(0, 2), (2, 1), (1, 3), (3, 0)]
        for u, v in ring:
            mesh.add_edge(u, v, hop_length=1)
        for e in range(4):
            mesh.add_edge(e, 4, hop_length=1)
        # Each ring edge has one face (with apex 4); the ring is open below.
        counts = mesh.edge_face_counts()
        assert all(counts[e] == 1 for e in ((0, 2), (1, 2), (1, 3), (0, 3)))
        ok = patch_holes(mesh, GroupHops(graph, mesh.group))
        assert ok
        # One diagonal of the quad 0-2-1-3 must now exist.
        assert mesh.has_edge(0, 1) or mesh.has_edge(2, 3)
        assert all(c >= 2 for c in mesh.edge_face_counts().values())

    def test_already_closed_mesh_untouched(self):
        graph = _octahedron_nodes_graph()
        mesh = TriangularMesh(vertices=[0, 1, 2, 3], group=[0, 1, 2, 3])
        for u in range(4):
            for v in range(u + 1, 4):
                mesh.add_edge(u, v, hop_length=1)
        before = set(mesh.edges)
        assert patch_holes(mesh, GroupHops(graph, mesh.group))
        assert mesh.edges == before

    def test_open_path_reports_failure(self):
        graph = _octahedron_nodes_graph()
        mesh = TriangularMesh(vertices=[0, 1, 2], group=[0, 1, 2])
        mesh.add_edge(0, 1, hop_length=1)
        mesh.add_edge(1, 2, hop_length=1)
        assert not patch_holes(mesh, GroupHops(graph, mesh.group))
