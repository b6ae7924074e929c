"""``detect()`` on degenerate deployments, against the per-stage oracles.

The production paths (the ``sparse`` localization engine and the batched
UBF kernel) must be at least as robust as the oracles (``pernode`` frames
and the ``naive`` kernel) where the geometry degenerates: an isolated
node (a one-member frame, no ball pairs) and coincident nodes (zero
distances, zero-length triangle sides).  Every node's UBF verdict and
Theorem-1 counters must match the oracle chain exactly.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import DeploymentConfig, generate_network, scenario_by_name
from repro.core.config import DetectorConfig, LocalizationConfig
from repro.core.pipeline import BoundaryDetector
from repro.core.ubf import ubf_classify_frame
from repro.network.generator import Network
from repro.network.graph import NetworkGraph
from repro.network.localization import build_frames, true_local_frame
from repro.network.measurement import UniformAbsoluteError, measure_distances

SEED = 5


@pytest.fixture(scope="module")
def degenerate_network():
    """A small sphere plus one isolated node and two coincident twins."""
    base = generate_network(
        scenario_by_name("sphere"),
        DeploymentConfig(n_surface=60, n_interior=90, target_degree=12.0, seed=17),
        scenario="sphere",
    )
    positions = base.graph.positions
    far = positions.max(axis=0) + 10.0
    extra = np.vstack([far, positions[0], positions[40]])
    graph = NetworkGraph(np.vstack([positions, extra]), radio_range=1.0)
    truth = np.concatenate([base.truth_boundary, [True, False, False]])
    return Network(graph=graph, truth_boundary=truth, scenario="degenerate")


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


def test_true_localization_matches_naive_oracle(degenerate_network):
    config = DetectorConfig()
    result = BoundaryDetector(config).detect(degenerate_network)
    assert result.localization_used == "true"
    graph = degenerate_network.graph
    frames = [true_local_frame(graph, v) for v in range(graph.n_nodes)]
    _assert_outcomes_match(
        result.ubf_outcomes, _oracle_outcomes(frames, config.ubf.radius)
    )
    isolated = result.ubf_outcomes[graph.n_nodes - 3]
    assert isolated.is_candidate and isolated.balls_tested == 0


def test_measured_mode_matches_pernode_and_naive_oracles(degenerate_network):
    error = UniformAbsoluteError(0.3)
    config = DetectorConfig(error_model=error)
    result = BoundaryDetector(config).detect(
        degenerate_network, rng=np.random.default_rng(SEED)
    )
    assert result.localization_used == "mds"
    graph = degenerate_network.graph
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
    ).detect(degenerate_network, rng=np.random.default_rng(SEED))
    assert result.boundary == oracle_run.boundary
    assert result.groups == oracle_run.groups
