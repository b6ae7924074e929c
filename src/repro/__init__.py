"""repro: boundary detection in 3D wireless networks.

A from-scratch reproduction of *"Localized Algorithm for Precise Boundary
Detection in 3D Wireless Networks"* (Zhou, Xia, Jin, Wu -- ICDCS 2010).

The package identifies the boundary nodes of a 3D wireless network with the
paper's two-phase localized algorithm -- Unit Ball Fitting (UBF) followed by
Isolated Fragment Filtering (IFF) -- and constructs a locally planarized
2-manifold triangular mesh for every inner and outer boundary surface.

Quickstart::

    import numpy as np
    from repro import (
        BoundaryDetector, DeploymentConfig, SurfaceBuilder,
        generate_network, sphere_scenario,
    )

    network = generate_network(
        sphere_scenario(),
        DeploymentConfig(n_surface=500, n_interior=1200, seed=42),
        scenario="sphere",
    )
    result = BoundaryDetector().detect(network)
    meshes = SurfaceBuilder().build(network.graph, result.groups)

See ``DESIGN.md`` for the system inventory and ``EXPERIMENTS.md`` for the
paper-versus-measured record of every reproduced figure.
"""

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # eager imports for type checkers only
    from repro.applications import (
        GeoRouter,
        HoleReport,
        analyze_hole,
    )
    from repro.core import (
        BoundaryDetectionResult,
        BoundaryDetector,
        DetectorConfig,
        IFFConfig,
        UBFConfig,
        detect_boundary,
        group_boundary_nodes,
        run_iff,
        run_ubf,
    )
    from repro.network import (
        DeploymentConfig,
        DistanceErrorModel,
        GaussianError,
        MeasuredDistances,
        Network,
        NetworkGraph,
        NetworkStats,
        NoError,
        UniformAbsoluteError,
        UniformRelativeError,
        compute_network_stats,
        generate_network,
        measure_distances,
    )
    from repro.shapes import (
        SCENARIOS,
        BentPipe,
        Difference,
        Shape3D,
        Sphere,
        UnderwaterTerrain,
        bent_pipe_scenario,
        one_hole_scenario,
        scenario_by_name,
        sphere_scenario,
        two_hole_scenario,
        underwater_scenario,
    )
    from repro.observability import (
        NULL_TRACER,
        MetricsRegistry,
        Tracer,
        load_trace,
        validate_trace_lines,
        write_trace,
    )
    from repro.service import JobBudget, JobSpec, JobStore, RetryBackoff, Worker
    from repro.surface import SurfaceBuilder, SurfaceConfig, TriangularMesh

__version__ = "1.0.0"

#: Public name -> defining submodule.  Exports resolve lazily on first
#: attribute access (PEP 562): importing ``repro`` must not import numpy,
#: so the stdlib-only ``repro.analysis`` linter stays runnable in hermetic
#: environments (e.g. the CI lint job) with no dependencies installed.
_EXPORT_MODULES = {
    "repro.core": (
        "BoundaryDetectionResult",
        "BoundaryDetector",
        "DetectorConfig",
        "IFFConfig",
        "UBFConfig",
        "detect_boundary",
        "group_boundary_nodes",
        "run_iff",
        "run_ubf",
    ),
    "repro.network": (
        "DeploymentConfig",
        "DistanceErrorModel",
        "GaussianError",
        "MeasuredDistances",
        "Network",
        "NetworkGraph",
        "NetworkStats",
        "NoError",
        "UniformAbsoluteError",
        "UniformRelativeError",
        "compute_network_stats",
        "generate_network",
        "measure_distances",
    ),
    "repro.shapes": (
        "SCENARIOS",
        "BentPipe",
        "Difference",
        "Shape3D",
        "Sphere",
        "UnderwaterTerrain",
        "bent_pipe_scenario",
        "one_hole_scenario",
        "scenario_by_name",
        "sphere_scenario",
        "two_hole_scenario",
        "underwater_scenario",
    ),
    "repro.applications": (
        "GeoRouter",
        "HoleReport",
        "analyze_hole",
    ),
    "repro.surface": (
        "SurfaceBuilder",
        "SurfaceConfig",
        "TriangularMesh",
    ),
    "repro.observability": (
        "MetricsRegistry",
        "NULL_TRACER",
        "Tracer",
        "load_trace",
        "validate_trace_lines",
        "write_trace",
    ),
    "repro.service": (
        "JobBudget",
        "JobSpec",
        "JobStore",
        "RetryBackoff",
        "Worker",
    ),
}

_EXPORTS = {
    name: module for module, names in _EXPORT_MODULES.items() for name in names
}

__all__ = ["__version__", *sorted(_EXPORTS)]


def __getattr__(name: str):
    import importlib

    module_name = _EXPORTS.get(name)
    if module_name is not None:
        value = getattr(importlib.import_module(module_name), name)
        globals()[name] = value  # cache so __getattr__ runs once per name
        return value
    if not name.startswith("_"):
        # ``import repro; repro.core`` worked when the imports above were
        # eager; keep submodule attribute access alive for that idiom.
        try:
            return importlib.import_module(f"repro.{name}")
        except ModuleNotFoundError as exc:
            if exc.name != f"repro.{name}":
                raise  # a real missing dependency inside the submodule
    raise AttributeError(f"module 'repro' has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
