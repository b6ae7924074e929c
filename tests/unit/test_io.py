"""Unit tests for serialization and mesh export."""

import json
import os

import numpy as np
import pytest

from repro.core.pipeline import BoundaryDetectionResult
from repro.io.meshio import export_mesh_obj
from repro.io.serialization import (
    load_detection_result,
    load_network,
    save_detection_result,
    save_network,
    write_atomic,
)
from repro.network.graph import NetworkGraph
from repro.surface.mesh import TriangularMesh


class TestNetworkRoundtrip:
    def test_roundtrip_preserves_everything(self, sphere_network, tmp_path):
        path = tmp_path / "net.json"
        save_network(sphere_network, path)
        loaded = load_network(path)
        assert loaded.n_nodes == sphere_network.n_nodes
        assert np.allclose(loaded.graph.positions, sphere_network.graph.positions)
        assert (loaded.truth_boundary == sphere_network.truth_boundary).all()
        assert loaded.scenario == sphere_network.scenario
        assert loaded.config.seed == sphere_network.config.seed
        # Adjacency identical.
        for i in range(0, loaded.n_nodes, 97):
            assert (
                loaded.graph.neighbors(i).tolist()
                == sphere_network.graph.neighbors(i).tolist()
            )

    def test_version_check(self, sphere_network, tmp_path):
        path = tmp_path / "net.json"
        save_network(sphere_network, path)
        doc = json.loads(path.read_text())
        doc["format_version"] = 99
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError):
            load_network(path)


class TestResultRoundtrip:
    def test_roundtrip(self, tmp_path):
        result = BoundaryDetectionResult(
            candidates={1, 2, 3},
            boundary={1, 2},
            groups=[[1, 2]],
            localization_used="true",
        )
        path = tmp_path / "result.json"
        save_detection_result(result, path)
        loaded = load_detection_result(path)
        assert loaded.candidates == result.candidates
        assert loaded.boundary == result.boundary
        assert loaded.groups == result.groups
        assert loaded.localization_used == "true"


class TestMeshExport:
    def _mesh_and_graph(self):
        positions = np.array(
            [[0, 0, 0], [1, 0, 0], [0.5, 0.9, 0], [0.5, 0.3, 0.8]], dtype=float
        )
        graph = NetworkGraph(positions, radio_range=1.5)
        mesh = TriangularMesh(vertices=[0, 1, 2, 3])
        for u in range(4):
            for v in range(u + 1, 4):
                mesh.add_edge(u, v)
        return mesh, graph

    def test_obj_structure(self, tmp_path):
        mesh, graph = self._mesh_and_graph()
        path = tmp_path / "m.obj"
        export_mesh_obj(mesh, graph, path)
        text = path.read_text()
        assert text.count("\nv ") + text.startswith("v ") == 4
        assert text.count("\nf ") == 4
        # OBJ indices are 1-based.
        assert " 0 " not in text.split("f ", 1)[1]


class TestWriteAtomic:
    def test_writes_content_and_returns_path(self, tmp_path):
        path = tmp_path / "artifact.json"
        returned = write_atomic(path, '{"ok": true}\n')
        assert returned == path
        assert path.read_text() == '{"ok": true}\n'

    def test_overwrites_existing_file(self, tmp_path):
        path = tmp_path / "artifact.json"
        path.write_text("old")
        write_atomic(path, "new")
        assert path.read_text() == "new"

    def test_no_tmp_files_left_behind(self, tmp_path):
        path = tmp_path / "artifact.json"
        write_atomic(path, "data")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["artifact.json"]

    def test_injected_replace_failure_keeps_old_content(self, tmp_path, monkeypatch):
        path = tmp_path / "artifact.json"
        path.write_text("old content")

        def boom(src, dst):
            raise OSError("disk fell off")

        monkeypatch.setattr(os, "replace", boom)
        with pytest.raises(OSError, match="disk fell off"):
            write_atomic(path, "new content")
        monkeypatch.undo()
        # The destination still holds the previous bytes and the aborted
        # tmp file has been cleaned up.
        assert path.read_text() == "old content"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["artifact.json"]

    def test_injected_write_failure_leaves_no_destination(self, tmp_path, monkeypatch):
        path = tmp_path / "artifact.json"

        class ExplodingHandle:
            def __init__(self, fd):
                os.close(fd)

            def write(self, text):
                raise OSError("enospc")

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

        monkeypatch.setattr(os, "fdopen", lambda fd, *a, **k: ExplodingHandle(fd))
        with pytest.raises(OSError, match="enospc"):
            write_atomic(path, "data")
        monkeypatch.undo()
        assert not path.exists()
        assert list(tmp_path.iterdir()) == []
