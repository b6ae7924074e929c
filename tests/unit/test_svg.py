"""Unit tests for the SVG renderer."""

import numpy as np
import pytest

from repro.io.svg import SvgScene, render_detection_svg
from repro.network.graph import NetworkGraph
from repro.surface.mesh import TriangularMesh


@pytest.fixture
def small_scene(rng):
    positions = rng.uniform(-1, 1, size=(10, 3))
    return SvgScene(positions, size=200), positions


class TestSvgScene:
    def test_empty_scene_valid_svg(self, small_scene):
        scene, _ = small_scene
        text = scene.to_svg()
        assert text.startswith("<svg")
        assert text.rstrip().endswith("</svg>")

    def test_nodes_rendered_as_circles(self, small_scene):
        scene, _ = small_scene
        scene.add_nodes([0, 1, 2], fill="#ff0000")
        text = scene.to_svg()
        assert text.count("<circle") == 3
        assert "#ff0000" in text

    def test_mesh_rendered_as_polygons(self, small_scene):
        scene, _ = small_scene
        mesh = TriangularMesh(vertices=[0, 1, 2, 3])
        for u in range(4):
            for v in range(u + 1, 4):
                mesh.add_edge(u, v)
        scene.add_mesh(mesh)
        assert scene.to_svg().count("<polygon") == 4

    def test_coordinates_inside_canvas(self, small_scene):
        import re

        scene, _ = small_scene
        scene.add_nodes(range(10))
        text = scene.to_svg()
        coords = [
            (float(m.group(1)), float(m.group(2)))
            for m in re.finditer(r'cx="([\d.]+)" cy="([\d.]+)"', text)
        ]
        assert coords
        for x, y in coords:
            assert 0 <= x <= 200
            assert 0 <= y <= 200

    def test_invalid_positions_rejected(self):
        with pytest.raises(ValueError):
            SvgScene(np.zeros((3, 2)))

    def test_write(self, small_scene, tmp_path):
        scene, _ = small_scene
        scene.add_nodes([0])
        out = tmp_path / "scene.svg"
        scene.write(out)
        assert out.read_text().startswith("<svg")


class TestRenderDetection:
    def test_one_call_render(self, sphere_network, sphere_detection, tmp_path):
        out = tmp_path / "detection.svg"
        render_detection_svg(sphere_network, sphere_detection.boundary, out)
        text = out.read_text()
        assert text.count("<circle") == sphere_network.n_nodes
