"""Unit tests for the quasi-unit-disk radio model."""

import hashlib
from unittest import mock

import numpy as np
import pytest

from repro.network.graph import NetworkGraph
from repro.network.radio import QuasiUnitDiskModel, quasi_udg_graph


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


def _quasi(pts, model, rng):
    return quasi_udg_graph(NetworkGraph(pts, radio_range=1.0), model, rng)


class TestBuildAdjacency:
    def test_unit_disk_matches_graph_construction(self, rng):
        pts = rng.uniform(0, 3, size=(50, 3))
        state = rng.bit_generator.state
        quasi = _quasi(pts, QuasiUnitDiskModel(alpha=1.0), rng)
        # alpha = 1 is deterministic: it draws nothing from the stream.
        assert rng.bit_generator.state == state
        graph = NetworkGraph(pts, radio_range=1.0)
        for a, b in zip(quasi.csr(), graph.csr()):
            np.testing.assert_array_equal(a, b)

    def test_symmetric(self, rng):
        graph = _quasi(rng.uniform(0, 3, size=(60, 3)), QuasiUnitDiskModel(0.6), rng)
        for u in range(graph.n_nodes):
            for v in graph.neighbors(u):
                assert u in graph.neighbors(v)

    def test_quasi_udg_subset_of_unit_disk(self, rng):
        pts = rng.uniform(0, 3, size=(60, 3))
        quasi = _quasi(pts, QuasiUnitDiskModel(0.6), np.random.default_rng(1))
        full = NetworkGraph(pts, radio_range=1.0)
        assert set(quasi.edges()) < set(full.edges())
        for u in range(60):
            assert np.all(np.diff(quasi.neighbors(u)) > 0)

    def test_empty_positions(self, rng):
        state = rng.bit_generator.state
        graph = _quasi(np.empty((0, 3)), QuasiUnitDiskModel(), rng)
        assert graph.n_nodes == 0 and graph.n_edges == 0
        assert rng.bit_generator.state == state


#: SHA-256 prefixes of ``indptr`` and ``indices`` of quasi-UDG deployments,
#: and the generator's next draw after the link draw.  Recorded from the
#: list-building predecessor of ``quasi_udg_graph`` (one Python append per
#: kept pair); the CSR mask must reproduce its links and consume exactly
#: its draws, natively and under ``REPRO_NATIVE=0``.
QUASI_PINS = {
    "pipeline": ("08957c0adfa655ec", "23e7b1ca54bbe740", 0.016254814952189944),
    "giant": ("bf1264fda9600405", "bc3e05b61a19c490", 0.6323329864819148),
    "deployed": ("cedb93923063f360", "7d05ae25fa426800", 0.6323329864819148),
}


def _quasi_deployment(case):
    from repro import DeploymentConfig, generate_network, sphere_scenario
    from repro.shapes.solids import Sphere

    if case == "pipeline":
        # tests/integration/test_quasi_udg_pipeline.py's network.
        shape = sphere_scenario()
        config = DeploymentConfig(
            n_surface=350, n_interior=600, target_degree=32, seed=4,
            quasi_udg_alpha=0.75,
        )
    else:
        # test_generator.py's giant-component case at alpha = 0.5.
        shape = Sphere(radius=1.0)
        config = DeploymentConfig(
            n_surface=40, n_interior=40, target_degree=3, seed=1,
            connectivity_retries=0, quasi_udg_alpha=0.5,
        )
    draws = []

    def spy(graph, model, rng):
        draws.append(rng)
        return quasi_udg_graph(graph, model, rng)

    with mock.patch("repro.network.radio.quasi_udg_graph", spy):
        if case == "deployed":
            with mock.patch.object(NetworkGraph, "is_connected", return_value=True):
                net = generate_network(shape, config)
        else:
            net = generate_network(shape, config)
    return net, draws[-1]


@pytest.mark.parametrize("case", sorted(QUASI_PINS))
def test_quasi_udg_links_and_draws_pinned(case):
    net, rng = _quasi_deployment(case)
    digests = tuple(
        hashlib.sha256(arr.tobytes()).hexdigest()[:16] for arr in net.graph.csr()
    )
    assert digests + (rng.random(),) == QUASI_PINS[case]


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
