"""Additional GeoRouter behaviors: hop accounting and budgets."""

import numpy as np
import pytest

from repro.applications.geo_routing import GeoRouter
from repro.network.graph import NetworkGraph


@pytest.fixture
def straight_line():
    positions = np.array([[0.8 * i, 0.0, 0.0] for i in range(10)])
    return NetworkGraph(positions, radio_range=1.0)


class TestHopAccounting:
    def test_greedy_hops_counted(self, straight_line):
        router = GeoRouter(straight_line, recovery="none")
        result = router.route(0, 9)
        assert result.delivered
        assert result.greedy_hops == 9
        assert result.recovery_hops == 0
        assert result.stalls == 0

    def test_self_route(self, straight_line):
        router = GeoRouter(straight_line, recovery="none")
        result = router.route(4, 4)
        assert result.delivered
        assert result.path == [4]
        assert result.greedy_hops == 0


class TestHopBudget:
    def test_max_hops_respected(self, straight_line):
        router = GeoRouter(straight_line, recovery="none")
        result = router.route(0, 9, max_hops=3)
        assert not result.delivered
        assert result.path == []

    def test_budget_exactly_sufficient(self, straight_line):
        router = GeoRouter(straight_line, recovery="none")
        result = router.route(0, 9, max_hops=9)
        assert result.delivered


class TestRecoveryBookkeeping:
    def test_recovery_only_on_stall(self, straight_line):
        """On a straight line greedy never stalls, so no recovery hops."""
        router = GeoRouter(
            straight_line, set(range(10)), recovery="boundary"
        )
        result = router.route(0, 9)
        assert result.delivered
        assert result.recovery_hops == 0
        assert result.greedy_hops == 9
