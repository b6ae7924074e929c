"""Unit tests: campaign spec schema, cell expansion, docs, rendering."""

from __future__ import annotations

import json

import pytest

from repro.evaluation.campaign import (
    CELL_KIND_ERROR,
    CampaignSpec,
    expand,
    error_point_doc,
    error_point_from_doc,
    load_spec,
    render_campaign_tables,
)
from repro.evaluation.experiments import ErrorSweepPoint
from repro.evaluation.metrics import DetectionStats


def error_spec(**overrides) -> CampaignSpec:
    base = dict(name="t-err", kind="error_sweep", levels=(0.0, 0.2))
    base.update(overrides)
    return CampaignSpec(**base)


class TestSpecValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown campaign kind"):
            CampaignSpec(name="x", kind="sweep")

    def test_bad_name_rejected(self):
        with pytest.raises(ValueError, match="campaign name"):
            error_spec(name="has spaces")
        with pytest.raises(ValueError, match="campaign name"):
            error_spec(name="")

    def test_error_sweep_needs_levels(self):
        with pytest.raises(ValueError, match="levels"):
            CampaignSpec(name="x", kind="error_sweep")

    def test_robustness_needs_loss_rates(self):
        """The deleted fault-grid kind and its loss-rate axis no longer load."""
        old = {
            "format_version": 1,
            "name": "robustness-baseline",
            "kind": "robustness",
            "scenarios": ["sphere"],
            "seeds": [0],
            "n_surface": 150,
            "n_interior": 250,
            "target_degree": 14.0,
            "epsilon": 0.001,
            "theta": 20,
            "ttl": 3,
            "loss_rates": [0.0, 0.1, 0.3],
            "crash_fractions": [0.0, 0.2],
            "max_rounds": 10000,
            "output": "results/robustness_baseline.txt",
        }
        with pytest.raises(ValueError, match="unknown campaign spec keys"):
            CampaignSpec.from_dict(old)
        with pytest.raises(ValueError, match="unknown campaign kind"):
            CampaignSpec(name="x", kind="robustness")
        with pytest.raises(ValueError, match="unknown campaign kind"):
            error_spec(kind="robustness")

    def test_bad_mode_rejected(self):
        """The raw/reliable mode axis and its retry knobs are gone."""
        doc = error_spec().as_dict()
        doc["modes"] = ["raw", "reliable"]
        with pytest.raises(ValueError, match="unknown campaign spec keys"):
            CampaignSpec.from_dict(doc)
        doc = error_spec().as_dict()
        doc.update(max_retries=8, rto=2)
        with pytest.raises(ValueError, match="unknown campaign spec keys"):
            CampaignSpec.from_dict(doc)
        with pytest.raises(ValueError, match="unknown keys"):
            error_spec(variants=({"name": "a", "max_retries": 4},))

    def test_empty_axes_rejected(self):
        with pytest.raises(ValueError, match="scenario"):
            error_spec(scenarios=())
        with pytest.raises(ValueError, match="seed"):
            error_spec(seeds=())

    def test_variant_needs_unique_names_and_known_keys(self):
        with pytest.raises(ValueError, match="'name'"):
            error_spec(variants=({"theta": 8},))
        with pytest.raises(ValueError, match="duplicate variant"):
            error_spec(variants=({"name": "a"}, {"name": "a"}))
        with pytest.raises(ValueError, match="unknown keys"):
            error_spec(variants=({"name": "a", "kernel": "naive"},))

    def test_from_dict_rejects_unknown_keys_and_versions(self):
        doc = error_spec().as_dict()
        doc["grid"] = [1]
        with pytest.raises(ValueError, match="unknown campaign spec keys"):
            CampaignSpec.from_dict(doc)
        doc = error_spec().as_dict()
        doc["format_version"] = 99
        with pytest.raises(ValueError, match="format version"):
            CampaignSpec.from_dict(doc)

    def test_round_trip_preserves_spec_and_hash(self):
        spec = error_spec(seeds=(0, 3), variants=({"name": "a"},))
        again = CampaignSpec.from_dict(json.loads(json.dumps(spec.as_dict())))
        assert again == spec
        assert again.spec_hash() == spec.spec_hash()

    def test_load_spec_errors(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        with pytest.raises(ValueError, match="not valid JSON"):
            load_spec(bad)
        arr = tmp_path / "arr.json"
        arr.write_text("[1, 2]", encoding="utf-8")
        with pytest.raises(ValueError, match="JSON object"):
            load_spec(arr)


class TestExpansion:
    def test_error_sweep_order_and_payload(self):
        spec = error_spec(
            seeds=(0, 1), variants=({"name": "base"}, {"name": "t8", "theta": 8})
        )
        cells = expand(spec)
        # scenario x seed x variant x level, slice-major.
        assert len(cells) == 1 * 2 * 2 * 2
        assert [c.index for c in cells] == list(range(8))
        assert cells[0].kind == CELL_KIND_ERROR
        assert cells[0].axes == {
            "scenario": "sphere",
            "seed": 0,
            "variant": "base",
            "level": 0.0,
        }
        # The variant override lands in the cell payload.
        t8 = [c for c in cells if c.axes["variant"] == "t8"]
        assert all(c.params["theta"] == 8 for c in t8)
        base = [c for c in cells if c.axes["variant"] == "base"]
        assert all(c.params["theta"] == spec.theta for c in base)

    def test_cell_payload_is_position_free(self):
        """The same axis point has an identical payload in any grid shape."""
        wide = error_spec(levels=(0.0, 0.1, 0.3))
        narrow = error_spec(levels=(0.3,))
        wide_cell = next(c for c in expand(wide) if c.axes["level"] == 0.3)
        narrow_cell = expand(narrow)[0]
        assert wide_cell.params == narrow_cell.params


class TestResultDocs:
    def test_error_point_round_trip(self):
        point = ErrorSweepPoint(
            level=0.2,
            stats=DetectionStats(
                n_truth=10, n_found=9, n_correct=8, n_mistaken=1, n_missing=2
            ),
            mistaken_hops={1: 1},
            missing_hops={1: 1, 2: 1},
        )
        doc = json.loads(json.dumps(error_point_doc(point)))
        assert error_point_from_doc(doc) == point


class TestRendering:
    def test_rejects_missing_or_misaligned_results(self):
        spec = error_spec()
        with pytest.raises(ValueError, match="0 results for 2 cells"):
            render_campaign_tables(spec, [])
        point = ErrorSweepPoint(
            level=0.0,
            stats=DetectionStats(
                n_truth=1, n_found=1, n_correct=1, n_mistaken=0, n_missing=0
            ),
            mistaken_hops={},
            missing_hops={},
        )
        with pytest.raises(ValueError, match="missing results for cells \\[1\\]"):
            render_campaign_tables(spec, [error_point_doc(point), None])

    def test_single_slice_has_no_headers_multi_slice_does(self):
        point = ErrorSweepPoint(
            level=0.0,
            stats=DetectionStats(
                n_truth=1, n_found=1, n_correct=1, n_mistaken=0, n_missing=0
            ),
            mistaken_hops={},
            missing_hops={},
        )
        doc = error_point_doc(point)
        single = render_campaign_tables(error_spec(levels=(0.0,)), [doc])
        assert "===" not in single
        assert single.endswith("\n") and not single.endswith("\n\n")
        multi = render_campaign_tables(
            error_spec(levels=(0.0,), seeds=(0, 1)), [doc, doc]
        )
        assert "=== scenario=sphere seed=0 variant=default ===" in multi
        assert "=== scenario=sphere seed=1 variant=default ===" in multi
