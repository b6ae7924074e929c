"""The e2e bench stage times ``detect()`` itself and reports its stages."""

from __future__ import annotations

import pytest

from repro.core.pipeline import BoundaryDetector
from repro.core.ubf import ubf_span_counters
from repro.evaluation.bench import (
    BENCH_SCENARIOS,
    E2E_STAGE_SPANS,
    build_context,
    run_bench,
)


@pytest.fixture(scope="module")
def e2e_small():
    return run_bench(["e2e"], scenario_id="small", repeat=2)["e2e"]


def test_counters_are_detect_outputs(e2e_small):
    ctx = build_context(BENCH_SCENARIOS["small"], with_frames=False)
    result = BoundaryDetector().detect(ctx.network)
    ubf = ubf_span_counters(result.ubf_outcomes)
    assert e2e_small["counters"] == {
        "n_candidates": len(result.candidates),
        "total_balls_tested": float(ubf["balls_tested"]),
        "total_points_checked": float(ubf["points_checked"]),
        "n_boundary": len(result.boundary),
        "n_groups": len(result.groups),
        "largest_group": max(len(g) for g in result.groups),
    }


def test_stages_map_holds_detect_spans(e2e_small):
    """Generation and the detect spans lie inside the timed runs;
    ``surface`` is timed after them and is not part of ``median_seconds``."""
    stages = dict(e2e_small["stages"])
    surface = stages.pop("surface")
    assert tuple(stages) == ("generation", *E2E_STAGE_SPANS)
    assert all(seconds >= 0.0 for seconds in stages.values())
    assert stages["generation"] > 0.0
    assert sum(stages.values()) <= max(e2e_small["timings"])
    assert surface > 0.0
    assert e2e_small["repeat"] == 2 and len(e2e_small["timings"]) == 2
