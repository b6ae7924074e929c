"""Coverage for evaluation corners: seeding and bench artifacts."""

from __future__ import annotations

import numpy as np
import pytest

from repro.evaluation.bench import (
    FORMAT_VERSION,
    artifact_path,
    check_regression,
    load_artifact,
    write_artifacts,
)
from repro.evaluation.seeding import (
    cell_rng,
    cell_substream,
    error_cell_identity,
)


class TestCellSubstreams:
    def test_stable_and_order_insensitive(self):
        a = cell_substream({"cell": "error", "level": 0.2})
        b = cell_substream({"level": 0.2, "cell": "error"})
        assert a == b
        assert cell_substream({"cell": "error", "level": 0.3}) != a

    def test_numpy_scalars_name_the_same_cell(self):
        plain = cell_substream({"level": 0.2, "n": 3})
        numpy_ = cell_substream({"level": np.float64(0.2), "n": np.int64(3)})
        assert plain == numpy_

    def test_bool_none_str_are_distinct_scalars(self):
        assert cell_substream({"flag": True}) != cell_substream({"flag": 1})
        assert cell_substream({"x": None}) != cell_substream({"x": "None"})

    def test_non_scalar_identity_rejected(self):
        with pytest.raises(TypeError, match="JSON scalars"):
            cell_substream({"levels": [0.1, 0.2]})

    def test_cell_rng_reproducible_and_identity_bound(self):
        identity = error_cell_identity(0.2)
        first = cell_rng(7, identity).random(4)
        again = cell_rng(7, identity).random(4)
        other = cell_rng(7, error_cell_identity(0.4)).random(4)
        assert np.array_equal(first, again)
        assert not np.array_equal(first, other)


class TestBenchArtifacts:
    DOC = {
        "format_version": FORMAT_VERSION,
        "stage": "ubf",
        "scenario": "ubf_2k",
        "median_seconds": 1.0,
        "counters": {"balls_tested": 100},
    }

    def test_write_load_round_trip(self, tmp_path):
        paths = write_artifacts({"ubf": self.DOC}, tmp_path)
        assert paths == [artifact_path(tmp_path, "ubf")]
        assert load_artifact(paths[0]) == self.DOC

    def test_load_rejects_foreign_version(self, tmp_path):
        write_artifacts({"ubf": {**self.DOC, "format_version": 99}}, tmp_path)
        with pytest.raises(ValueError, match="artifact version"):
            load_artifact(artifact_path(tmp_path, "ubf"))

    def test_check_regression_clean_and_missing_baseline(self, tmp_path):
        write_artifacts({"ubf": self.DOC}, tmp_path)
        assert check_regression({"ubf": dict(self.DOC)}, tmp_path) == []
        issues = check_regression({"iff": dict(self.DOC)}, tmp_path)
        assert len(issues) == 1 and "no baseline" in issues[0]

    def test_check_regression_flags_drift_and_slowdown(self, tmp_path):
        write_artifacts({"ubf": self.DOC}, tmp_path)
        bad = {
            **self.DOC,
            "median_seconds": 10.0,
            "counters": {"balls_tested": 200},
        }
        issues = check_regression({"ubf": bad}, tmp_path, time_factor=3.0)
        assert any("drifted" in issue for issue in issues)
        assert any("regressed" in issue for issue in issues)
