"""Cross-path equivalence: a cell's result is a pure function of identity.

The RNG-consistency contract (identity-derived substreams, see
``repro.evaluation.seeding``): a sweep cell produces the *same* result
whether it runs standalone (``run_error_cell``), inside a hand-rolled
sweep (``run_error_sweep`` of any shape or order), or as a campaign job
(``execute_cell`` / ``execute_job``).  These tests pin that equivalence on every path pair.
"""

from __future__ import annotations

import pytest

from repro.core.config import DetectorConfig, IFFConfig, UBFConfig
from repro.evaluation.campaign import (
    CELL_KIND_ERROR,
    CampaignSpec,
    error_point_from_doc,
    execute_cell,
    expand,
)
from repro.evaluation.experiments import run_error_cell, run_error_sweep
from repro.network.generator import DeploymentConfig, generate_network
from repro.shapes.library import scenario_by_name

DEPLOYMENT = DeploymentConfig(
    n_surface=60, n_interior=100, target_degree=12.0, seed=0
)
CONFIG = DetectorConfig(ubf=UBFConfig(epsilon=1e-3), iff=IFFConfig(theta=10, ttl=3))


@pytest.fixture(scope="module")
def network():
    return generate_network(
        scenario_by_name("sphere"), DEPLOYMENT, scenario="sphere"
    )


def campaign_cell_params(level: float):
    """The campaign payload matching DEPLOYMENT/CONFIG for one level."""
    spec = CampaignSpec(
        name="xpath",
        kind="error_sweep",
        scenarios=("sphere",),
        seeds=(0,),
        n_surface=60,
        n_interior=100,
        target_degree=12.0,
        theta=10,
        ttl=3,
        levels=(level,),
    )
    (cell,) = expand(spec)
    return cell.params


class TestErrorCellPaths:
    def test_standalone_equals_sweep_member_any_shape(self, network):
        standalone = run_error_cell(
            network, 0.3, detector_config=CONFIG, seed=0
        )
        short = run_error_sweep(network, (0.3,), detector_config=CONFIG, seed=0)
        long = run_error_sweep(
            network, (0.1, 0.3, 0.5), detector_config=CONFIG, seed=0
        )
        assert short[0] == standalone
        assert long[1] == standalone

    def test_duplicate_levels_are_identical_cells(self, network):
        """Same identity => same substream: duplicate levels now agree."""
        twice = run_error_sweep(network, (0.3, 0.3), detector_config=CONFIG, seed=0)
        assert twice[0] == twice[1]

    def test_campaign_cell_equals_standalone(self, network):
        standalone = run_error_cell(network, 0.3, detector_config=CONFIG, seed=0)
        doc = execute_cell(
            CELL_KIND_ERROR, campaign_cell_params(0.3)
        )
        assert error_point_from_doc(doc) == standalone


class TestExecuteCellErrors:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown campaign cell kind"):
            execute_cell("eval.mystery", {})

    def test_missing_payload_rejected(self):
        with pytest.raises(ValueError, match="no cell parameters"):
            execute_cell(CELL_KIND_ERROR, None)
