"""3D region models used to deploy simulated wireless networks.

The paper builds its simulation scenarios with TetGen-generated 3D models
(Sec. IV-A).  TetGen is only used there to obtain a 3D region in which to
sample ground-truth boundary nodes (uniformly on the surface) and interior
nodes (uniformly in the volume).  This package provides the same capability
from scratch: every shape knows how to

* decide membership (``contains``),
* sample its boundary surface uniformly by area (``sample_surface``), and
* sample its interior uniformly by volume (``sample_interior``).

Four shapes build the five evaluation scenarios of Figs. 6-10: a
:class:`Sphere` (Fig. 10, and the holes of Figs. 7-8), a :class:`Difference`
carving sphere holes out of a sphere (Figs. 7-8), a :class:`BentPipe`
(Fig. 9) and an :class:`UnderwaterTerrain` (Fig. 6).  The scenarios are
available pre-configured in :mod:`repro.shapes.library`.
"""

from repro.shapes.base import Shape3D
from repro.shapes.csg import Difference
from repro.shapes.library import (
    SCENARIOS,
    bent_pipe_scenario,
    one_hole_scenario,
    scenario_by_name,
    sphere_scenario,
    two_hole_scenario,
    underwater_scenario,
)
from repro.shapes.pipe import BentPipe
from repro.shapes.solids import Sphere
from repro.shapes.terrain import UnderwaterTerrain

__all__ = [
    "Shape3D",
    "Difference",
    "Sphere",
    "BentPipe",
    "UnderwaterTerrain",
    "SCENARIOS",
    "scenario_by_name",
    "underwater_scenario",
    "one_hole_scenario",
    "two_hole_scenario",
    "bent_pipe_scenario",
    "sphere_scenario",
]
