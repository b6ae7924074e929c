"""SurfaceConfig validation and the functional pipeline wrapper."""

import pytest

from repro.surface.pipeline import (
    SurfaceBuilder,
    SurfaceConfig,
    build_boundary_surfaces,
)


class TestSurfaceConfigValidation:
    def test_defaults(self):
        config = SurfaceConfig()
        assert config.k == 4
        assert config.adaptive_k

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            SurfaceConfig(k=0)


class TestFunctionalWrapper:
    def test_matches_builder(self, sphere_network, sphere_detection):
        direct = SurfaceBuilder().build(
            sphere_network.graph, sphere_detection.groups
        )
        functional = build_boundary_surfaces(
            sphere_network.graph, sphere_detection.groups
        )
        assert len(direct) == len(functional)
        assert direct[0].edges == functional[0].edges
