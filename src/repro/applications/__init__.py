"""Applications built on detected boundaries.

The paper motivates boundary detection with routing around holes and
with delineating the regions that events destroy (Sec. I).  This package
delivers one tool for each:

* :mod:`repro.applications.geo_routing` -- boundary-aware geographic
  routing through the network: greedy forwarding toward the destination
  with a detour along detected boundary nodes when greedy gets stuck.
* :mod:`repro.applications.hole_analysis` -- quantitative descriptions of
  detected holes (extent, centroid, volume estimate) from their boundary
  groups, the "delineate the event region" use case of Sec. I.
"""

from repro.applications.geo_routing import GeoRouter, GeoRouteResult, delivery_rate
from repro.applications.hole_analysis import HoleReport, analyze_hole

__all__ = [
    "GeoRouter",
    "GeoRouteResult",
    "delivery_rate",
    "analyze_hole",
    "HoleReport",
]
