"""Unit tests for network deployment."""

from unittest import mock

import numpy as np
import pytest

from repro.network.generator import (
    DeploymentConfig,
    _radio_range_for_degree,
    generate_network,
)
from repro.network.graph import NetworkGraph
from repro.shapes.solids import Sphere


class TestGenerateNetwork:
    def setup_method(self):
        self.config = DeploymentConfig(
            n_surface=200, n_interior=400, target_degree=22, seed=0
        )

    def test_node_counts_and_truth_flags(self):
        net = generate_network(Sphere(radius=1.0), self.config, scenario="s")
        assert net.n_nodes == 600
        assert net.truth_boundary.sum() == 200
        # Surface nodes come first.
        assert net.truth_boundary[:200].all()
        assert not net.truth_boundary[200:].any()

    def test_radio_range_normalized(self):
        net = generate_network(Sphere(radius=1.0), self.config)
        assert net.graph.radio_range == 1.0

    def test_truth_nodes_on_scaled_surface(self):
        net = generate_network(Sphere(radius=1.0), self.config)
        truth_positions = net.graph.positions[net.truth_boundary]
        radii = np.linalg.norm(truth_positions, axis=1)
        assert np.allclose(radii, net.scale, rtol=1e-6)

    def test_deterministic_given_seed(self):
        a = generate_network(Sphere(radius=1.0), self.config)
        b = generate_network(Sphere(radius=1.0), self.config)
        assert np.allclose(a.graph.positions, b.graph.positions)

    def test_different_seeds_differ(self):
        other = DeploymentConfig(
            n_surface=200, n_interior=400, target_degree=22, seed=1
        )
        a = generate_network(Sphere(radius=1.0), self.config)
        b = generate_network(Sphere(radius=1.0), other)
        assert not np.allclose(a.graph.positions, b.graph.positions)

    def test_connected_output(self):
        net = generate_network(Sphere(radius=1.0), self.config)
        assert net.graph.is_connected()

    def test_target_degree_roughly_met(self):
        net = generate_network(Sphere(radius=1.0), self.config)
        # Boundary truncation pulls the mean below target; allow slack.
        assert 10 <= net.graph.degrees().mean() <= 30

    def test_giant_component_fallback(self):
        """A hopeless density still yields a (restricted) network."""
        sparse = DeploymentConfig(
            n_surface=30,
            n_interior=30,
            target_degree=2.0,
            seed=0,
            connectivity_retries=0,
            keep_giant_component=True,
        )
        net = generate_network(Sphere(radius=1.0), sparse)
        assert net.graph.is_connected()
        assert net.scenario.endswith("+giant")

    @pytest.mark.parametrize("alpha", [None, 0.5])
    def test_giant_component_keeps_the_induced_links(self, alpha):
        """The kept graph is the induced subgraph of the deployed one.

        Unit-disk: byte-identical to a unit-ball rebuild over the kept
        positions.  Quasi-UDG: exactly the links the model drew between kept
        nodes, no gray-zone link added.
        """
        config = DeploymentConfig(
            n_surface=40,
            n_interior=40,
            target_degree=3,
            seed=1,
            connectivity_retries=0,
            quasi_udg_alpha=alpha,
        )
        with mock.patch.object(NetworkGraph, "is_connected", return_value=True):
            deployed = generate_network(Sphere(radius=1.0), config).graph
        net = generate_network(Sphere(radius=1.0), config)
        assert net.scenario.endswith("+giant")
        keep = np.array(max(deployed.connected_components(), key=len))
        assert net.n_nodes == keep.size < deployed.n_nodes
        np.testing.assert_array_equal(net.graph.positions, deployed.positions[keep])
        relabel = {int(old): new for new, old in enumerate(keep)}
        induced = sorted(
            (relabel[u], relabel[v])
            for u, v in deployed.edges()
            if u in relabel and v in relabel
        )
        assert list(net.graph.edges()) == induced
        rebuilt = NetworkGraph(net.graph.positions, radio_range=1.0)
        same = [np.array_equal(a, b) for a, b in zip(net.graph.csr(), rebuilt.csr())]
        if alpha is None:
            assert same == [True, True]
        else:
            # The unit-ball rebuild over the same positions adds gray-zone
            # links the quasi-UDG draw rejected.
            assert net.graph.n_edges < rebuilt.n_edges

    def test_disconnected_raises_without_fallback(self):
        sparse = DeploymentConfig(
            n_surface=30,
            n_interior=30,
            target_degree=1.2,
            seed=0,
            connectivity_retries=0,
            keep_giant_component=False,
        )
        with pytest.raises(RuntimeError):
            generate_network(Sphere(radius=1.0), sparse)

    def test_summary_mentions_scenario(self):
        net = generate_network(Sphere(radius=1.0), self.config, scenario="demo")
        assert "demo" in net.summary()


class TestRadioRangeForDegree:
    def test_uses_exact_volume(self, rng):
        shape = Sphere(radius=1.0)
        r = _radio_range_for_degree(shape, 1000, 20.0, rng)
        density = 1000 / shape.volume
        expected = (3 * 20.0 / (4 * np.pi * density)) ** (1 / 3)
        assert r == pytest.approx(expected)

    def test_monotone_in_degree(self, rng):
        shape = Sphere(radius=1.0)
        r1 = _radio_range_for_degree(shape, 1000, 10.0, rng)
        r2 = _radio_range_for_degree(shape, 1000, 30.0, rng)
        assert r2 > r1
