"""Unit tests for distance measurement and error models."""

import numpy as np
import pytest

from repro.network.graph import NetworkGraph
from repro.network.measurement import (
    MIN_MEASURED_DISTANCE,
    GaussianError,
    MeasuredDistances,
    NoError,
    UniformAbsoluteError,
    UniformRelativeError,
    measure_distances,
)


@pytest.fixture
def small_graph():
    positions = np.array(
        [[0, 0, 0], [0.8, 0, 0], [0, 0.8, 0], [0.8, 0.8, 0]], dtype=float
    )
    return NetworkGraph(positions, radio_range=1.0)


class TestErrorModels:
    def test_no_error_identity(self, rng):
        d = np.array([0.1, 0.5, 0.9])
        assert np.allclose(NoError().perturb(d, rng), d)

    def test_uniform_absolute_bounds(self, rng):
        d = np.full(2000, 0.5)
        out = UniformAbsoluteError(0.2).perturb(d, rng)
        assert (out >= 0.3 - 1e-12).all()
        assert (out <= 0.7 + 1e-12).all()
        assert out.std() > 0.05  # actually random

    def test_uniform_absolute_clamps_positive(self, rng):
        d = np.full(2000, 0.05)
        out = UniformAbsoluteError(0.5).perturb(d, rng)
        assert (out > 0).all()

    def test_uniform_relative_bounds(self, rng):
        d = np.full(2000, 0.5)
        out = UniformRelativeError(0.1).perturb(d, rng)
        assert (out >= 0.45 - 1e-12).all()
        assert (out <= 0.55 + 1e-12).all()

    def test_gaussian_zero_sigma_identity(self, rng):
        d = np.array([0.3, 0.6])
        assert np.allclose(GaussianError(0.0).perturb(d, rng), d)

    def test_gaussian_spread(self, rng):
        d = np.full(5000, 0.5)
        out = GaussianError(0.1).perturb(d, rng)
        assert out.std() == pytest.approx(0.1, rel=0.15)

    def test_negative_levels_rejected(self):
        with pytest.raises(ValueError):
            UniformAbsoluteError(-0.1)
        with pytest.raises(ValueError):
            UniformRelativeError(-0.1)
        with pytest.raises(ValueError):
            GaussianError(-0.1)

    def test_describe_strings(self):
        assert "30%" in UniformAbsoluteError(0.3).describe()
        assert "no-error" == NoError().describe()


class TestMeasureDistances:
    def test_one_value_per_edge(self, small_graph, rng):
        measured = measure_distances(small_graph, NoError(), rng)
        assert len(measured) == small_graph.n_edges

    def test_symmetric_lookup(self, small_graph, rng):
        measured = measure_distances(small_graph, UniformAbsoluteError(0.1), rng)
        for u, v in small_graph.edges():
            assert measured.get(u, v) == measured.get(v, u)

    def test_exact_under_no_error(self, small_graph, rng):
        measured = measure_distances(small_graph, NoError(), rng)
        for (u, v), value in measured.items():
            assert value == pytest.approx(small_graph.distance(u, v))

    def test_non_edge_raises(self, small_graph, rng):
        measured = measure_distances(small_graph, NoError(), rng)
        with pytest.raises(KeyError):
            measured.get(0, 3)  # diagonal pair, out of range

    def test_contains(self, small_graph, rng):
        measured = measure_distances(small_graph, NoError(), rng)
        assert (0, 1) in measured
        assert (1, 0) in measured
        assert (0, 3) not in measured

    def test_empty_graph(self, rng):
        g = NetworkGraph(np.zeros((0, 3)))
        assert len(measure_distances(g, NoError(), rng)) == 0

    def test_deterministic_per_rng_seed(self, small_graph):
        m1 = measure_distances(
            small_graph, UniformAbsoluteError(0.2), np.random.default_rng(9)
        )
        m2 = measure_distances(
            small_graph, UniformAbsoluteError(0.2), np.random.default_rng(9)
        )
        assert dict(m1.items()) == dict(m2.items())

    @pytest.mark.parametrize("network", ["sphere_network", "one_hole_network"])
    def test_true_distances_bit_equal_to_graph_distance(self, network, request):
        # The stacked-product distances must equal the per-edge
        # np.linalg.norm of NetworkGraph.distance bit for bit, in edges()
        # order.
        graph = request.getfixturevalue(network).graph
        measured = measure_distances(graph, NoError(), np.random.default_rng(0))
        expected = [((u, v), graph.distance(u, v)) for u, v in graph.edges()]
        assert list(measured.items()) == expected

    def test_noise_drawn_in_edge_order(self, sphere_network):
        graph = sphere_network.graph
        measured = measure_distances(
            graph, UniformAbsoluteError(0.3), np.random.default_rng(9)
        )
        edges = list(graph.edges())
        true = np.array([graph.distance(u, v) for u, v in edges])
        noise = np.random.default_rng(9).uniform(-0.3, 0.3, size=len(edges))
        expected = np.maximum(true + noise, MIN_MEASURED_DISTANCE)
        assert list(measured.items()) == list(zip(edges, expected.tolist()))
