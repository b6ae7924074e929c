"""Unit tests for the quasi-unit-disk radio model."""

import numpy as np
import pytest

from repro.network.radio import QuasiUnitDiskModel, build_adjacency


class TestUnitDisk:
    def test_threshold_at_one(self, rng):
        """alpha = 1 is unit-disk connectivity: exactly 1 is linked."""
        model = QuasiUnitDiskModel(alpha=1.0)
        d = np.array([0.2, 0.99, 1.0, 1.01])
        assert model.link_mask(d, rng).tolist() == [True, True, True, False]


class TestQuasiUnitDisk:
    def test_certain_below_alpha(self, rng):
        model = QuasiUnitDiskModel(alpha=0.7)
        d = np.full(500, 0.6)
        assert model.link_mask(d, rng).all()

    def test_never_beyond_one(self, rng):
        model = QuasiUnitDiskModel(alpha=0.7)
        d = np.full(500, 1.05)
        assert not model.link_mask(d, rng).any()

    def test_gray_zone_probability_interpolates(self):
        model = QuasiUnitDiskModel(alpha=0.5)
        rng = np.random.default_rng(0)
        # At d = 0.75, probability = (1 - 0.75) / 0.5 = 0.5.
        d = np.full(20_000, 0.75)
        rate = model.link_mask(d, rng).mean()
        assert rate == pytest.approx(0.5, abs=0.02)

    def test_alpha_one_is_unit_disk(self, rng):
        model = QuasiUnitDiskModel(alpha=1.0)
        d = np.array([0.5, 0.999, 1.001])
        assert model.link_mask(d, rng).tolist() == [True, True, False]

    def test_invalid_alpha(self):
        with pytest.raises(ValueError):
            QuasiUnitDiskModel(alpha=0.0)
        with pytest.raises(ValueError):
            QuasiUnitDiskModel(alpha=1.2)


class TestBuildAdjacency:
    def test_unit_disk_matches_graph_construction(self, rng):
        from repro.network.graph import NetworkGraph

        pts = rng.uniform(0, 3, size=(50, 3))
        state = rng.bit_generator.state
        adjacency = build_adjacency(pts, QuasiUnitDiskModel(alpha=1.0), rng)
        # alpha = 1 is deterministic: it draws nothing from the stream.
        assert rng.bit_generator.state == state
        graph = NetworkGraph(pts, radio_range=1.0)
        for i in range(50):
            assert sorted(adjacency[i]) == graph.neighbors(i).tolist()

    def test_symmetric(self, rng):
        pts = rng.uniform(0, 3, size=(60, 3))
        adjacency = build_adjacency(pts, QuasiUnitDiskModel(0.6), rng)
        for u, nbrs in enumerate(adjacency):
            for v in nbrs:
                assert u in adjacency[v]

    def test_quasi_udg_subset_of_unit_disk(self, rng):
        pts = rng.uniform(0, 3, size=(60, 3))
        quasi = build_adjacency(pts, QuasiUnitDiskModel(0.6), np.random.default_rng(1))
        full = build_adjacency(
            pts, QuasiUnitDiskModel(alpha=1.0), np.random.default_rng(1)
        )
        for u in range(60):
            assert set(quasi[u]) <= set(full[u])

    def test_empty_positions(self, rng):
        assert build_adjacency(np.empty((0, 3)), QuasiUnitDiskModel(), rng) == []


class TestGeneratorIntegration:
    def test_quasi_udg_deployment(self):
        from repro import DeploymentConfig, generate_network, sphere_scenario

        config = DeploymentConfig(
            n_surface=200,
            n_interior=400,
            target_degree=30,
            seed=2,
            quasi_udg_alpha=0.75,
        )
        net = generate_network(sphere_scenario(), config, scenario="quasi")
        # Gray-zone pruning lowers the degree vs the pure unit-disk run.
        full = generate_network(
            sphere_scenario(),
            DeploymentConfig(
                n_surface=200, n_interior=400, target_degree=30, seed=2
            ),
        )
        assert net.graph.degrees().mean() < full.graph.degrees().mean()
        # All surviving edges respect the max range.
        for u, v in net.graph.edges():
            assert net.graph.distance(u, v) <= 1.0 + 1e-9
