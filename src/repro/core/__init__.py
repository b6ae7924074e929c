"""The paper's primary contribution: localized 3D boundary-node detection.

* :mod:`repro.core.ubf` -- Unit Ball Fitting (Algorithm 1): a node is a
  boundary candidate iff an empty ball of radius ``1 + eps`` through itself
  and two one-hop neighbors exists in its local coordinate frame.
* :mod:`repro.core.iff` -- Isolated Fragment Filtering: TTL-bounded local
  flooding demotes candidates sitting in fragments smaller than ``theta``.
* :mod:`repro.core.grouping` -- connected-component grouping of the
  surviving boundary nodes, one group per network boundary.
* :mod:`repro.core.parallel` -- process-parallel sharding of MDS frame
  construction (deterministic merge, byte-identical to sequential).
* :mod:`repro.core.pipeline` -- :class:`BoundaryDetector`, the end-to-end
  localization -> UBF -> IFF -> grouping pipeline.
"""

from repro.core.config import (
    DetectorConfig,
    IFFConfig,
    LocalizationConfig,
    UBFConfig,
)
from repro.core.grouping import group_boundary_nodes
from repro.core.iff import iff_fragment_sizes, run_iff
from repro.core.parallel import run_frames_parallel, run_sharded
from repro.core.pipeline import BoundaryDetectionResult, BoundaryDetector, detect_boundary
from repro.core.ubf import UBFNodeOutcome, UBFOutcomes, run_ubf, ubf_classify_frame

__all__ = [
    "UBFConfig",
    "IFFConfig",
    "LocalizationConfig",
    "DetectorConfig",
    "UBFNodeOutcome",
    "UBFOutcomes",
    "run_ubf",
    "run_frames_parallel",
    "run_sharded",
    "ubf_classify_frame",
    "run_iff",
    "iff_fragment_sizes",
    "group_boundary_nodes",
    "BoundaryDetector",
    "BoundaryDetectionResult",
    "detect_boundary",
]
