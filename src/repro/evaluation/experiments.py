"""Experiment drivers: one function per paper figure family.

Each driver returns plain dataclasses so benches and examples can print
the paper-shaped tables (via :mod:`repro.evaluation.reporting`) without
re-running anything.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.core.config import DetectorConfig, IFFConfig, UBFConfig
from repro.core.pipeline import BoundaryDetector
from repro.core.ubf import run_ubf
from repro.evaluation.mesh_metrics import MeshQuality, evaluate_mesh
from repro.evaluation.metrics import (
    DetectionStats,
    evaluate_detection,
    mistaken_hop_distribution,
    missing_hop_distribution,
)
from repro.network.generator import DeploymentConfig, Network, generate_network
from repro.network.measurement import (
    DistanceErrorModel,
    NoError,
    UniformAbsoluteError,
    measure_distances,
)
from repro.network.localization import true_frames
from repro.network.stats import NetworkStats, compute_network_stats
from repro.evaluation.seeding import cell_rng, error_cell_identity
from repro.shapes.library import scenario_by_name
from repro.surface.pipeline import SurfaceBuilder, SurfaceConfig

#: Paper's sweep axis: 0% to 100% in steps of 10% (Figs. 1(g-i), 11).
PAPER_ERROR_LEVELS = tuple(round(0.1 * i, 1) for i in range(11))


@dataclass
class ErrorSweepPoint:
    """Detection outcome at one distance-measurement error level."""

    level: float
    stats: DetectionStats
    mistaken_hops: Dict[int, int]
    missing_hops: Dict[int, int]


def run_error_cell(
    network: Network,
    level: float,
    *,
    model_factory: Callable[[float], DistanceErrorModel] = UniformAbsoluteError,
    detector_config: DetectorConfig = DetectorConfig(),
    seed: int = 0,
) -> ErrorSweepPoint:
    """One measurement-error sweep cell, a pure function of its identity.

    Draws a fresh set of edge measurements at ``level`` from the
    identity-derived substream ``default_rng([seed, cell])`` (see
    :mod:`repro.evaluation.seeding`), runs the full localization + UBF +
    IFF pipeline, and records the detection statistics plus hop
    distributions.  The result is byte-identical whether the cell runs
    standalone, inside :func:`run_error_sweep`, or as a campaign job --
    the substream depends on the cell's ``level``, never on its position
    in a sweep.
    """
    model = model_factory(level)
    config = replace(detector_config, error_model=model, localization="mds")
    rng = cell_rng(seed, error_cell_identity(level))
    measured = measure_distances(network.graph, model, rng)
    result = BoundaryDetector(config).detect(network, measured=measured)
    return ErrorSweepPoint(
        level=level,
        stats=evaluate_detection(network, result),
        mistaken_hops=mistaken_hop_distribution(network, result),
        missing_hops=missing_hop_distribution(network, result),
    )


def run_error_sweep(
    network: Network,
    levels: Sequence[float] = PAPER_ERROR_LEVELS,
    *,
    model_factory: Callable[[float], DistanceErrorModel] = UniformAbsoluteError,
    detector_config: DetectorConfig = DetectorConfig(),
    seed: int = 0,
) -> List[ErrorSweepPoint]:
    """Figs. 1(g-i): sweep the measurement error level on one network.

    Each level is one :func:`run_error_cell` invocation; cells draw from
    per-identity substreams, so the sweep is exactly the concatenation of
    its standalone cells (order- and shape-independent).
    """
    return [
        run_error_cell(
            network,
            level,
            model_factory=model_factory,
            detector_config=detector_config,
            seed=seed,
        )
        for level in levels
    ]


@dataclass
class ScenarioResult:
    """Full-pipeline outcome on one evaluation scenario (Figs. 6-10)."""

    scenario: str
    network_stats: NetworkStats
    detection: DetectionStats
    group_sizes: List[int]
    meshes: List[MeshQuality] = field(default_factory=list)


def run_scenario(
    scenario: str,
    deployment: DeploymentConfig = DeploymentConfig(),
    *,
    detector_config: DetectorConfig = DetectorConfig(),
    surface_config: SurfaceConfig = SurfaceConfig(),
    rng_seed: int = 0,
) -> ScenarioResult:
    """Generate a scenario network, detect its boundaries, build meshes."""
    network = generate_network(
        scenario_by_name(scenario), deployment, scenario=scenario
    )
    result = BoundaryDetector(detector_config).detect(
        network, rng=np.random.default_rng(rng_seed)
    )
    meshes = SurfaceBuilder(surface_config).build(network.graph, result.groups)
    return ScenarioResult(
        scenario=scenario,
        network_stats=compute_network_stats(network),
        detection=evaluate_detection(network, result),
        group_sizes=[len(g) for g in result.groups],
        meshes=[evaluate_mesh(network, mesh) for mesh in meshes],
    )


def run_aggregate_sweep(
    scenarios: Sequence[str],
    deployment: DeploymentConfig,
    levels: Sequence[float] = PAPER_ERROR_LEVELS,
    *,
    detector_config: DetectorConfig = DetectorConfig(),
    seed: int = 0,
) -> List[ErrorSweepPoint]:
    """Fig. 11: error sweep aggregated over several scenario networks.

    The paper's performance statistics pool "over 10,000 sample boundary
    nodes" across simulated networks; this driver runs the sweep on one
    network per scenario and merges counts and hop histograms per level.
    """
    per_network: List[List[ErrorSweepPoint]] = []
    for idx, scenario in enumerate(scenarios):
        network = generate_network(
            scenario_by_name(scenario), deployment, scenario=scenario
        )
        per_network.append(
            run_error_sweep(
                network,
                levels,
                detector_config=detector_config,
                seed=seed + 1000 * idx,
            )
        )

    merged: List[ErrorSweepPoint] = []
    for level_idx, level in enumerate(levels):
        points = [sweep[level_idx] for sweep in per_network]
        stats = DetectionStats(
            n_truth=sum(p.stats.n_truth for p in points),
            n_found=sum(p.stats.n_found for p in points),
            n_correct=sum(p.stats.n_correct for p in points),
            n_mistaken=sum(p.stats.n_mistaken for p in points),
            n_missing=sum(p.stats.n_missing for p in points),
        )
        mistaken: Dict[int, int] = {}
        missing: Dict[int, int] = {}
        for p in points:
            for bucket, count in p.mistaken_hops.items():
                mistaken[bucket] = mistaken.get(bucket, 0) + count
            for bucket, count in p.missing_hops.items():
                missing[bucket] = missing.get(bucket, 0) + count
        merged.append(
            ErrorSweepPoint(
                level=level,
                stats=stats,
                mistaken_hops=mistaken,
                missing_hops=missing,
            )
        )
    return merged


@dataclass
class MeshErrorPoint:
    """Mesh quality at one error level (Figs. 1(j)-(l))."""

    level: float
    detection: DetectionStats
    meshes: List[MeshQuality]


def run_mesh_error_sweep(
    network: Network,
    levels: Sequence[float] = (0.0, 0.2, 0.3, 0.4),
    *,
    detector_config: DetectorConfig = DetectorConfig(),
    surface_config: SurfaceConfig = SurfaceConfig(),
    seed: int = 0,
) -> List[MeshErrorPoint]:
    """Figs. 1(j)-(l): does the mesh stay well-formed under error?"""
    points: List[MeshErrorPoint] = []
    for idx, level in enumerate(levels):
        model: DistanceErrorModel = (
            NoError() if level == 0 else UniformAbsoluteError(level)
        )
        config = replace(detector_config, error_model=model)
        rng = np.random.default_rng(seed + idx)
        result = BoundaryDetector(config).detect(network, rng=rng)
        meshes = SurfaceBuilder(surface_config).build(network.graph, result.groups)
        points.append(
            MeshErrorPoint(
                level=level,
                detection=evaluate_detection(network, result),
                meshes=[evaluate_mesh(network, mesh) for mesh in meshes],
            )
        )
    return points


@dataclass
class ComplexityPoint:
    """Theorem 1 observables at one nodal density."""

    target_degree: float
    mean_degree: float
    mean_balls_tested: float
    max_balls_tested: float
    mean_points_checked: float = 0.0
    max_points_checked: float = 0.0
    mean_collection_size: float = 0.0
    #: Exhaustive probe bound ``balls_tested * collection_size`` per node:
    #: Theorem 1's Theta(rho^3) total-work observable.  The realized
    #: ``points_checked`` counter early-exits per ball at the first inside
    #: point and empirically grows only ~Theta(rho^2).
    mean_probe_bound: float = 0.0


def run_ubf_complexity(
    shape_name: str = "sphere",
    target_degrees: Sequence[float] = (10.0, 15.0, 20.0, 25.0, 30.0),
    *,
    n_surface: int = 400,
    n_interior: int = 800,
    seed: int = 0,
) -> List[ComplexityPoint]:
    """Theorem 1: per-node candidate-ball counts versus nodal density.

    Runs UBF in exhaustive mode (``find_first=False``) so the count
    reflects the full ``Theta(rho^2)`` candidate family rather than the
    early-exit path.
    """
    points: List[ComplexityPoint] = []
    for degree in target_degrees:
        network = generate_network(
            scenario_by_name(shape_name),
            DeploymentConfig(
                n_surface=n_surface,
                n_interior=n_interior,
                target_degree=degree,
                seed=seed,
            ),
            scenario=shape_name,
        )
        outcomes = run_ubf(network, UBFConfig(), find_first=False)
        tested = outcomes.balls_tested.astype(float)
        checked = outcomes.points_checked.astype(float)
        # Probes per candidate ball without early exit: the node's own
        # position plus its full 2-hop collection, i.e. the frame size.
        frames = true_frames(network.graph, range(network.graph.n_nodes))
        collection = np.diff(frames.ptr).astype(float)
        degrees = network.graph.degrees()
        points.append(
            ComplexityPoint(
                target_degree=degree,
                mean_degree=float(degrees.mean()),
                mean_balls_tested=float(tested.mean()),
                max_balls_tested=float(tested.max()),
                mean_points_checked=float(checked.mean()),
                max_points_checked=float(checked.max()),
                mean_collection_size=float(collection.mean()),
                mean_probe_bound=float((tested * collection).mean()),
            )
        )
    return points


@dataclass
class BallRadiusPoint:
    """Ablation A observables at one ball radius."""

    radius: float
    n_small_hole_detected: int
    n_large_hole_detected: int
    n_groups: int


def run_ball_radius_ablation(
    radii: Sequence[float] = (1.001, 1.6, 2.5),
    *,
    small_hole_radius: float = 0.30,
    large_hole_radius: float = 0.50,
    deployment: Optional[DeploymentConfig] = None,
    seed: int = 5,
) -> List[BallRadiusPoint]:
    """Sec. II-A3: a larger ball radius suppresses small holes.

    Deploys a sphere with one small and one large internal hole, runs UBF +
    IFF at each ball radius, and counts how many ground-truth nodes of each
    hole's surface are still detected.  Default hole sizes put the small
    hole at ~1.2 radio ranges and the large at ~2.1, so the default sweep
    shows: both detected at ``r ~= 1``, only the large at ``r = 1.6``,
    neither at ``r = 2.5``.
    """
    from repro.shapes.csg import Difference
    from repro.shapes.solids import Sphere

    outer = Sphere(radius=1.0)
    small = Sphere(center=(-0.45, 0.0, 0.0), radius=small_hole_radius)
    large = Sphere(center=(0.4, 0.0, 0.0), radius=large_hole_radius)
    shape = Difference(outer, [small, large])
    deployment = deployment or DeploymentConfig(
        n_surface=800, n_interior=1000, target_degree=30, seed=seed
    )
    network = generate_network(shape, deployment, scenario="radius-ablation")

    # Ground-truth nodes per hole: surface samples nearest to each hole.
    positions = network.graph.positions
    truth_ids = sorted(network.truth_boundary_set)
    scale = network.scale
    small_center = np.asarray(small.center) * scale
    large_center = np.asarray(large.center) * scale
    small_truth = {
        i
        for i in truth_ids
        if np.linalg.norm(positions[i] - small_center) < small.radius * scale * 1.2
    }
    large_truth = {
        i
        for i in truth_ids
        if np.linalg.norm(positions[i] - large_center) < large.radius * scale * 1.2
    }

    points: List[BallRadiusPoint] = []
    for radius in radii:
        config = DetectorConfig(
            ubf=UBFConfig(ball_radius=radius),
            iff=IFFConfig(theta=5, ttl=3),
        )
        result = BoundaryDetector(config).detect(network)
        points.append(
            BallRadiusPoint(
                radius=radius,
                n_small_hole_detected=len(result.boundary & small_truth),
                n_large_hole_detected=len(result.boundary & large_truth),
                n_groups=len(result.groups),
            )
        )
    return points


@dataclass
class IFFAblationPoint:
    """Ablation B observables for one (theta, ttl) setting."""

    theta: int
    ttl: int
    stats: DetectionStats


def run_iff_ablation(
    network: Network,
    thetas: Sequence[int] = (1, 5, 10, 20, 40),
    ttls: Sequence[int] = (2, 3, 4),
    *,
    detector_config: DetectorConfig = DetectorConfig(),
    rng_seed: int = 0,
) -> List[IFFAblationPoint]:
    """Sec. II-B: sensitivity of the filter to theta and TTL."""
    points: List[IFFAblationPoint] = []
    for ttl in ttls:
        for theta in thetas:
            config = replace(
                detector_config, iff=IFFConfig(theta=theta, ttl=ttl)
            )
            result = BoundaryDetector(config).detect(
                network, rng=np.random.default_rng(rng_seed)
            )
            points.append(
                IFFAblationPoint(
                    theta=theta,
                    ttl=ttl,
                    stats=evaluate_detection(network, result),
                )
            )
    return points


@dataclass
class LandmarkKPoint:
    """Ablation C observables at one landmark spacing."""

    k: int
    meshes: List[MeshQuality]


def run_landmark_k_ablation(
    network: Network,
    ks: Sequence[int] = (3, 4, 5),
    *,
    detector_config: DetectorConfig = DetectorConfig(),
    rng_seed: int = 0,
) -> List[LandmarkKPoint]:
    """Sec. III: larger k -> coarser mesh, more nodes left outside."""
    result = BoundaryDetector(detector_config).detect(
        network, rng=np.random.default_rng(rng_seed)
    )
    points: List[LandmarkKPoint] = []
    for k in ks:
        builder = SurfaceBuilder(SurfaceConfig(k=k, adaptive_k=False))
        meshes = builder.build(network.graph, result.groups)
        points.append(
            LandmarkKPoint(
                k=k, meshes=[evaluate_mesh(network, m) for m in meshes]
            )
        )
    return points


def run_collection_hops_ablation(
    network: Network,
    hops_values: Sequence[int] = (1, 2, 3),
) -> List[DetectionStats]:
    """The 1-hop vs 2-hop collection ablation (see UBFConfig docs)."""
    stats: List[DetectionStats] = []
    for hops in hops_values:
        config = DetectorConfig(ubf=UBFConfig(collection_hops=hops))
        result = BoundaryDetector(config).detect(network)
        stats.append(evaluate_detection(network, result))
    return stats
