"""``detect()`` on degenerate deployments, against the per-stage oracles.

The production paths (sweep-built true frames, the ``sparse``
localization engine and the batched UBF kernel) must be at least as
robust as the oracles (per-node ``true_local_frame``/``pernode`` frames
and the ``naive`` kernel) where the geometry degenerates: an isolated
node (a one-member frame, no ball pairs), coincident nodes (zero
distances, zero-length triangle sides) and a fully collinear
neighborhood (rank-one frames, every ball pair on one line).  Every
node's UBF verdict and Theorem-1 counters must match the oracle chain
exactly.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import DeploymentConfig, generate_network, scenario_by_name
from repro.core import parallel
from repro.core.config import DetectorConfig, LocalizationConfig
from repro.core.parallel import run_frames_parallel
from repro.core.pipeline import BoundaryDetector
from repro.core.ubf import ubf_classify_frame
from repro.network.generator import Network
from repro.network.graph import NetworkGraph
from repro.network.localization import build_frames, true_local_frame
from repro.network.measurement import UniformAbsoluteError, measure_distances
from repro.observability.tracer import TickClock, Tracer
from repro.surface.pipeline import SurfaceBuilder

SEED = 5


@pytest.fixture(scope="module")
def sphere():
    return generate_network(
        scenario_by_name("sphere"),
        DeploymentConfig(n_surface=60, n_interior=90, target_degree=12.0, seed=17),
        scenario="sphere",
    )


def _append(base, extra_positions, extra_truth):
    """``base`` with extra nodes appended after its own."""
    positions = np.vstack([base.graph.positions, extra_positions])
    truth = np.concatenate([base.truth_boundary, extra_truth])
    return Network(
        graph=NetworkGraph(positions, radio_range=1.0),
        truth_boundary=truth,
        scenario="degenerate",
    )


@pytest.fixture(scope="module")
def degenerate_network(sphere):
    """A small sphere plus one isolated node and two coincident twins."""
    positions = sphere.graph.positions
    far = positions.max(axis=0) + 10.0
    return _append(
        sphere, np.vstack([far, positions[0], positions[40]]), [True, False, False]
    )


#: Nodes of the collinear chain appended to the sphere, their spacing and
#: direction: every chain node's collection lies on one line, and the
#: middle node's 2-hop collection is the whole chain.
CHAIN_NODES, CHAIN_SPACING = 9, 0.3
CHAIN_DIRECTION = np.array([1.0, 0.5, 0.25]) / np.linalg.norm([1.0, 0.5, 0.25])


@pytest.fixture(scope="module")
def collinear_network(sphere):
    """A small sphere plus a far-away chain of collinear nodes."""
    far = sphere.graph.positions.max(axis=0) + 10.0
    chain = far + np.outer(np.arange(CHAIN_NODES) * CHAIN_SPACING, CHAIN_DIRECTION)
    return _append(sphere, chain, [True] * CHAIN_NODES)


def _oracle_outcomes(frames, radius):
    return [
        ubf_classify_frame(frame, radius, kernel="naive") for frame in frames
    ]


def _assert_outcomes_match(outcomes, oracle):
    assert len(outcomes) == len(oracle)
    for got, want in zip(outcomes, oracle):
        assert got.is_candidate == want.is_boundary, got.node
        assert got.balls_tested == want.balls_tested, got.node
        assert got.points_checked == want.points_checked, got.node


def test_deployment_is_degenerate(degenerate_network):
    graph = degenerate_network.graph
    isolated = graph.n_nodes - 3
    assert graph.degrees()[isolated] == 0
    assert graph.has_edge(0, graph.n_nodes - 2)
    assert np.array_equal(graph.positions[0], graph.positions[-2])


def _check_true_mode(network):
    config = DetectorConfig()
    result = BoundaryDetector(config).detect(network)
    assert result.localization_used == "true"
    graph = network.graph
    frames = [true_local_frame(graph, v) for v in range(graph.n_nodes)]
    _assert_outcomes_match(
        result.ubf_outcomes, _oracle_outcomes(frames, config.ubf.radius)
    )
    return result


def _check_measured_mode(network):
    error = UniformAbsoluteError(0.3)
    config = DetectorConfig(error_model=error)
    result = BoundaryDetector(config).detect(
        network, rng=np.random.default_rng(SEED)
    )
    assert result.localization_used == "mds"
    graph = network.graph
    measured = measure_distances(graph, error, np.random.default_rng(SEED))
    frames = build_frames(graph, measured, engine="pernode")
    _assert_outcomes_match(
        result.ubf_outcomes, _oracle_outcomes(frames, config.ubf.radius)
    )
    oracle_run = BoundaryDetector(
        DetectorConfig(
            error_model=error,
            localization_config=LocalizationConfig(engine="pernode"),
        )
    ).detect(network, rng=np.random.default_rng(SEED))
    assert result.boundary == oracle_run.boundary
    assert result.groups == oracle_run.groups
    return result


def test_true_localization_matches_naive_oracle(degenerate_network):
    result = _check_true_mode(degenerate_network)
    isolated = result.ubf_outcomes[degenerate_network.graph.n_nodes - 3]
    assert isolated.is_candidate and isolated.balls_tested == 0


def test_measured_mode_matches_pernode_and_naive_oracles(degenerate_network):
    _check_measured_mode(degenerate_network)


def test_collinear_chain_is_one_line(collinear_network):
    graph = collinear_network.graph
    chain = np.arange(graph.n_nodes - CHAIN_NODES, graph.n_nodes)
    frame = true_local_frame(graph, int(chain[CHAIN_NODES // 2]))
    assert sorted(frame.members) == chain.tolist()
    centered = frame.coordinates - frame.coordinates.mean(axis=0)
    assert np.linalg.matrix_rank(centered, tol=1e-9) == 1


def test_collinear_true_localization_matches_naive_oracle(collinear_network):
    _check_true_mode(collinear_network)


def test_collinear_measured_mode_matches_pernode_and_naive_oracles(
    collinear_network,
):
    _check_measured_mode(collinear_network)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("hops", [1, 2, 3])
def test_true_frames_match_per_node_oracle(
    degenerate_network, monkeypatch, hops, workers
):
    # Small shards so two workers really split the network.
    monkeypatch.setattr(parallel._FrameShardTask, "shard_size", 40)
    graph = degenerate_network.graph
    frames = run_frames_parallel(
        degenerate_network, mode="true", hops=hops, workers=workers
    )
    assert [f.node for f in frames] == list(range(graph.n_nodes))
    for frame in frames:
        oracle = true_local_frame(graph, frame.node, hops=hops)
        assert frame.members == oracle.members
        assert all(type(m) is int for m in frame.members)
        assert frame.n_one_hop == oracle.n_one_hop
        assert frame.coordinates.dtype == oracle.coordinates.dtype
        assert frame.coordinates.tobytes() == oracle.coordinates.tobytes()
        assert frame.smacof_iterations == oracle.smacof_iterations == 0


def test_surface_builds_on_degenerate_groups(degenerate_network, collinear_network):
    """The isolated node, coincident twins and collinear chain reach the
    surface stage inside ``detect()``'s groups and must not break it."""
    for network in (degenerate_network, collinear_network):
        result = BoundaryDetector(DetectorConfig()).detect(network)
        meshes = SurfaceBuilder().build(network.graph, result.groups)
        assert len(meshes) <= len(result.groups)


@pytest.mark.parametrize("size", [1, 2, 3, CHAIN_NODES])
def test_tiny_group_records_too_few_landmarks(collinear_network, size):
    """Groups of 1-3 chain nodes, and the whole chain (three landmarks even
    at ``k = 2``), carry no mesh: every attempt decays to ``k = 2`` and
    records ``too_few_landmarks``."""
    graph = collinear_network.graph
    group = list(range(graph.n_nodes - CHAIN_NODES, graph.n_nodes))[:size]
    tracer = Tracer(clock=TickClock())
    assert SurfaceBuilder(tracer=tracer).build(graph, [group]) == []
    (group_span,) = tracer.roots
    attempts = [c for c in group_span.children if c.name == "surface.attempt"]
    assert attempts
    for attempt in attempts:
        assert attempt.attrs["outcome"] == "too_few_landmarks"
        assert attempt.attrs["effective_k"] == 2
        assert attempt.attrs["n_landmarks"] < 4
