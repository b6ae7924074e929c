"""The ``localization`` bench stage and its regression gate.

The stage times measured-mode frame construction (sparse engine by
default), runs the pernode oracle once over the pinned node subsample for
the ``speedup_vs_pernode`` ratio, and verifies the engine contract there
(``engines_agree``).  The gate logic is tested on synthetic artifacts so
it stays fast and timing-independent.
"""

from __future__ import annotations

import pytest

from repro.evaluation.bench import (
    BENCH_ORACLE_SAMPLE,
    BENCH_SCENARIOS,
    STAGES,
    BenchScenario,
    bench_localization,
    build_context,
    compare_artifact,
    oracle_sample_nodes,
    render_bench_table,
    run_bench,
)

TINY = BenchScenario(
    name="tiny",
    shape="sphere",
    n_surface=80,
    n_interior=120,
    target_degree=12.0,
    seed=11,
)


@pytest.fixture(scope="module")
def tiny_doc():
    return bench_localization(build_context(TINY), repeat=1)


class TestBenchLocalizationStage:
    def test_stage_registered(self):
        assert "localization" in STAGES
        assert STAGES.index("localization") == 0  # pipeline order

    def test_artifact_shape(self, tiny_doc):
        assert tiny_doc["stage"] == "localization"
        assert tiny_doc["engine"] == "sparse"
        assert tiny_doc["measurement_error"] == 0.3
        counters = tiny_doc["counters"]
        assert counters["n_frames"] == TINY.n_surface + TINY.n_interior
        assert counters["total_members"] >= counters["n_frames"]
        assert counters["max_frame_size"] >= counters["mean_frame_size"]
        assert counters["total_smacof_iterations"] > 0

    def test_oracle_side_of_the_gate(self, tiny_doc):
        assert tiny_doc["pernode_seconds"] > 0
        assert tiny_doc["speedup_vs_pernode"] > 0
        assert tiny_doc["engines_agree"] is True
        assert tiny_doc["oracle"] == "sampled"
        assert tiny_doc["oracle_nodes"] == len(
            oracle_sample_nodes(TINY.n_surface + TINY.n_interior)
        )

    def test_full_oracle_opt_in(self):
        doc = bench_localization(build_context(TINY), repeat=1, full_oracle=True)
        assert doc["oracle"] == "full"
        assert doc["oracle_nodes"] == TINY.n_surface + TINY.n_interior
        assert doc["engines_agree"] is True

    def test_skip_pernode_omits_gate_fields(self):
        doc = bench_localization(build_context(TINY), repeat=1, time_pernode=False)
        assert "pernode_seconds" not in doc
        assert "speedup_vs_pernode" not in doc
        assert "engines_agree" not in doc

    def test_oracle_sample_is_pinned_and_spans_the_network(self):
        sample = oracle_sample_nodes(2000)
        assert sample == oracle_sample_nodes(2000)  # deterministic
        assert len(sample) <= BENCH_ORACLE_SAMPLE
        assert len(sample) >= BENCH_ORACLE_SAMPLE // 2
        assert sample[0] == 0 and sample[-1] > 1900  # spans the id range
        assert len(set(sample)) == len(sample)
        # Small networks keep every node: the gate never loses coverage
        # by sampling below the sample size.
        assert oracle_sample_nodes(50) == list(range(50))

    def test_run_bench_dispatch_and_table(self):
        results = run_bench(
            ["localization"], scenario_id="small", repeat=1, time_naive=False
        )
        assert set(results) == {"localization"}
        table = render_bench_table(results)
        assert "localization" in table

    def test_pinned_scenario_unchanged(self):
        """The gate is measured on the pinned 2000-node sphere."""
        pinned = BENCH_SCENARIOS["ubf_2k"]
        assert (pinned.n_surface, pinned.n_interior) == (800, 1200)
        assert pinned.seed == 11

    def test_loc_20k_scenario_pinned(self):
        """The scale scenario: 20k nodes, same shape/degree/seed family."""
        pinned = BENCH_SCENARIOS["loc_20k"]
        assert (pinned.n_surface, pinned.n_interior) == (6000, 14000)
        assert pinned.target_degree == 24.0
        assert pinned.seed == 11


def _loc_artifact(**extra):
    doc = {
        "format_version": 1,
        "stage": "localization",
        "scenario": "ubf_2k",
        "n_nodes": 2000,
        "mean_degree": 24.0,
        "repeat": 1,
        "median_seconds": 1.0,
        "timings": [1.0],
        "counters": {"n_frames": 2000.0},
    }
    doc.update(extra)
    return doc


class TestEngineSpeedupGate:
    def test_speedup_below_floor_flagged(self):
        baseline = _loc_artifact(speedup_vs_pernode=3.5)
        current = _loc_artifact(speedup_vs_pernode=2.1, engines_agree=True)
        issues = compare_artifact(current, baseline)
        assert any("below the required 3.0x" in i for i in issues)

    def test_speedup_at_floor_passes(self):
        baseline = _loc_artifact(speedup_vs_pernode=3.5)
        current = _loc_artifact(speedup_vs_pernode=3.0, engines_agree=True)
        assert compare_artifact(current, baseline) == []

    def test_engine_disagreement_flagged(self):
        baseline = _loc_artifact(speedup_vs_pernode=3.5)
        current = _loc_artifact(speedup_vs_pernode=4.0, engines_agree=False)
        issues = compare_artifact(current, baseline)
        assert any("engines disagree" in i for i in issues)

    def test_custom_floor_respected(self):
        baseline = _loc_artifact(speedup_vs_pernode=3.5)
        current = _loc_artifact(speedup_vs_pernode=3.2, engines_agree=True)
        issues = compare_artifact(current, baseline, min_engine_speedup=4.0)
        assert any("below the required 4.0x" in i for i in issues)

    def test_counter_drift_still_checked(self):
        baseline = _loc_artifact(speedup_vs_pernode=3.5)
        current = _loc_artifact(speedup_vs_pernode=3.5, engines_agree=True)
        current["counters"] = {"n_frames": 1800.0}
        issues = compare_artifact(current, baseline)
        assert any("n_frames drifted" in i for i in issues)


class TestPeakRssGate:
    def test_rss_regression_flagged(self):
        baseline = _loc_artifact(peak_rss_bytes=100 * 2**20)
        current = _loc_artifact(peak_rss_bytes=250 * 2**20)
        issues = compare_artifact(current, baseline)
        assert any("peak RSS regressed" in i for i in issues)

    def test_rss_within_factor_passes(self):
        baseline = _loc_artifact(peak_rss_bytes=100 * 2**20)
        current = _loc_artifact(peak_rss_bytes=199 * 2**20)
        assert compare_artifact(current, baseline) == []

    def test_rss_custom_factor(self):
        baseline = _loc_artifact(peak_rss_bytes=100 * 2**20)
        current = _loc_artifact(peak_rss_bytes=150 * 2**20)
        issues = compare_artifact(current, baseline, rss_factor=1.2)
        assert any("peak RSS regressed" in i for i in issues)

    def test_rss_absent_on_either_side_is_skipped(self):
        # Baselines predating the RSS field (or non-POSIX runs) gate
        # nothing rather than failing spuriously.
        assert compare_artifact(_loc_artifact(), _loc_artifact()) == []
        assert (
            compare_artifact(
                _loc_artifact(peak_rss_bytes=2**30), _loc_artifact()
            )
            == []
        )
        assert (
            compare_artifact(
                _loc_artifact(), _loc_artifact(peak_rss_bytes=2**10)
            )
            == []
        )
