"""Wireless-network substrate: deployment, connectivity, ranging, localization.

This package turns a :class:`repro.shapes.Shape3D` region into the exact
simulation input the paper describes (Sec. IV-A):

* a set of nodes -- ground-truth boundary nodes sampled uniformly on the
  region's surface plus an interior cloud sampled uniformly in its volume
  (:mod:`repro.network.generator`);
* unit-ball-graph connectivity with the radio range normalized to 1
  (:mod:`repro.network.graph`);
* noisy pairwise distance measurements within one hop
  (:mod:`repro.network.measurement`);
* per-node local coordinate systems established from those measurements via
  MDS (:mod:`repro.network.localization`).
"""

from repro.network.generator import DeploymentConfig, Network, generate_network
from repro.network.graph import NetworkGraph
from repro.network.localization import (
    FrameBatch,
    LocalFrame,
    build_frames,
    establish_local_frame,
)
from repro.network.measurement import (
    DistanceErrorModel,
    GaussianError,
    MeasuredDistances,
    NoError,
    UniformAbsoluteError,
    UniformRelativeError,
    measure_distances,
)
from repro.network.stats import NetworkStats, compute_network_stats

__all__ = [
    "DeploymentConfig",
    "Network",
    "generate_network",
    "NetworkGraph",
    "FrameBatch",
    "LocalFrame",
    "build_frames",
    "establish_local_frame",
    "DistanceErrorModel",
    "NoError",
    "UniformAbsoluteError",
    "UniformRelativeError",
    "GaussianError",
    "MeasuredDistances",
    "measure_distances",
    "NetworkStats",
    "compute_network_stats",
]
