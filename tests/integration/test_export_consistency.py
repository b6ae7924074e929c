"""OBJ export consistency on a real detected boundary."""

import pytest

from repro.io.meshio import export_mesh_obj
from repro.surface.pipeline import SurfaceBuilder


@pytest.fixture(scope="module")
def real_mesh(sphere_network, sphere_detection):
    meshes = SurfaceBuilder().build(sphere_network.graph, sphere_detection.groups)
    return sphere_network.graph, meshes[0]


class TestExportConsistency:
    def test_vertex_and_face_counts_agree(self, real_mesh, tmp_path):
        graph, mesh = real_mesh
        obj = tmp_path / "m.obj"
        export_mesh_obj(mesh, graph, obj)

        n_vertices = len(mesh.vertices)
        n_faces = len(mesh.triangles())

        obj_text = obj.read_text()
        assert sum(1 for l in obj_text.splitlines() if l.startswith("v ")) == n_vertices
        assert sum(1 for l in obj_text.splitlines() if l.startswith("f ")) == n_faces

    def test_obj_indices_in_range(self, real_mesh, tmp_path):
        graph, mesh = real_mesh
        obj = tmp_path / "m.obj"
        export_mesh_obj(mesh, graph, obj)
        n_vertices = len(mesh.vertices)
        for line in obj.read_text().splitlines():
            if line.startswith("f "):
                for token in line.split()[1:]:
                    idx = int(token)
                    assert 1 <= idx <= n_vertices

    def test_obj_coordinates_match_graph(self, real_mesh, tmp_path):
        graph, mesh = real_mesh
        obj = tmp_path / "m.obj"
        export_mesh_obj(mesh, graph, obj)
        vertex_lines = [l for l in obj.read_text().splitlines() if l.startswith("v ")]
        first_vertex = [float(x) for x in vertex_lines[0].split()[1:]]
        expected = graph.position(mesh.vertices[0])
        assert first_vertex == pytest.approx(list(expected), abs=1e-5)
