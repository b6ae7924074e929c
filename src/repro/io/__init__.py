"""Serialization: networks and detection results to JSON/NPZ, meshes to OBJ.

Mesh exports embed landmarks at their true positions so results can be
inspected in any standard 3D viewer (MeshLab, Blender), mirroring the
renderings of Figs. 1 and 6-10.
"""

from repro.io.meshio import export_mesh_obj
from repro.io.serialization import (
    load_detection_result,
    load_network,
    save_detection_result,
    save_network,
)
from repro.io.svg import SvgScene, render_detection_svg

__all__ = [
    "save_network",
    "load_network",
    "save_detection_result",
    "load_detection_result",
    "export_mesh_obj",
    "SvgScene",
    "render_detection_svg",
]
