"""End-to-end tracing: one traced detection covers every pipeline stage.

Also pins the detection-contract fixes that ride along with the
observability layer: an explicit (non-``auto``) localization mode flows
through the pipeline, and supplying measurements that the resolved mode will
ignore is loudly reported instead of silently discarded.
"""

from __future__ import annotations

import logging

import numpy as np
import pytest

from repro import BoundaryDetector, DetectorConfig
from repro.core.ubf import ubf_span_counters
from repro.observability.export import trace_lines, validate_trace_lines
from repro.observability.tracer import TickClock, Tracer
from repro.surface.pipeline import SurfaceBuilder


def _span_names(roots):
    names = []

    def walk(span):
        names.append(span.name)
        for child in span.children:
            walk(child)

    for root in roots:
        walk(root)
    return names


class TestTracedDetection:
    def test_trace_covers_every_stage(self, sphere_network):
        tracer = Tracer(clock=TickClock(), shard_clock=TickClock)
        result = BoundaryDetector().detect(sphere_network, tracer=tracer)
        SurfaceBuilder(tracer=tracer).build_records(
            sphere_network.graph, result.groups
        )

        names = _span_names(tracer.roots)
        for stage in ("detect", "localization", "ubf", "iff",
                      "grouping", "surface.group", "surface.attempt"):
            assert stage in names, f"stage {stage!r} missing from trace"
        # UBF is one in-process call under one span: no shard children.
        (ubf_span,) = [c for c in tracer.roots[0].children if c.name == "ubf"]
        assert names.count("ubf") == 1 and ubf_span.children == []
        assert "ubf.shard" not in names
        counters = ubf_span_counters(result.ubf_outcomes)
        assert {key: ubf_span.attrs[key] for key in counters} == counters

        lines = trace_lines(tracer.roots)
        assert validate_trace_lines(lines) == []

    def test_root_span_carries_config_and_counters(self, sphere_network):
        tracer = Tracer(clock=TickClock(), shard_clock=TickClock)
        result = BoundaryDetector().detect(sphere_network, tracer=tracer)
        detect_span = tracer.roots[0]
        assert detect_span.name == "detect"
        assert detect_span.attrs["config"]["localization"] == "auto"
        assert detect_span.attrs["rng"] == "default_seed_0"
        assert detect_span.attrs["n_boundary"] == len(result.boundary)
        assert detect_span.attrs["n_groups"] == len(result.groups)

    def test_traced_and_untraced_results_match(self, sphere_network,
                                               sphere_detection):
        tracer = Tracer(clock=TickClock(), shard_clock=TickClock)
        traced = BoundaryDetector().detect(sphere_network, tracer=tracer)
        assert traced.boundary == sphere_detection.boundary
        assert traced.groups == sphere_detection.groups

    def test_null_tracer_leaves_no_spans(self, sphere_network):
        from repro.observability.tracer import NULL_TRACER

        BoundaryDetector().detect(sphere_network, tracer=NULL_TRACER)
        assert NULL_TRACER.roots == []


class TestExplicitMdsMode:
    def test_mds_flows_through_pipeline(self, sphere_network):
        config = DetectorConfig(localization="mds")
        assert config.resolved_localization() == "mds"
        result = BoundaryDetector(config).detect(
            sphere_network, rng=np.random.default_rng(3)
        )
        assert result.localization_used == "mds"
        assert result.boundary  # the mode actually detects something

    def test_mds_mode_recorded_in_trace(self, sphere_network):
        tracer = Tracer(clock=TickClock(), shard_clock=TickClock)
        BoundaryDetector(DetectorConfig(localization="mds")).detect(
            sphere_network, tracer=tracer
        )
        detect_span = tracer.roots[0]
        assert detect_span.attrs["localization"] == "mds"
        (loc_span,) = [c for c in detect_span.children
                       if c.name == "localization"]
        assert loc_span.attrs["mode"] == "mds"
        assert loc_span.attrs["measurements_generated"] is True


class TestMeasuredIgnoredWarning:
    def test_warns_and_records_event(self, sphere_network, caplog):
        from repro.network.measurement import NoError, measure_distances

        measured = measure_distances(
            sphere_network.graph, NoError(), np.random.default_rng(0)
        )
        tracer = Tracer(clock=TickClock(), shard_clock=TickClock)
        with caplog.at_level(logging.WARNING, logger="repro.core.pipeline"):
            # localization='auto' + NoError resolves to 'true': the
            # supplied measurements are ignored.
            BoundaryDetector().detect(
                sphere_network, measured=measured, tracer=tracer
            )
        assert any("measurements are ignored" in r.message
                   for r in caplog.records)
        detect_span = tracer.roots[0]
        assert [e["name"] for e in detect_span.events] == ["measured_ignored"]

    def test_no_warning_when_measurements_consumed(self, sphere_network,
                                                   caplog):
        from repro.network.measurement import NoError, measure_distances

        measured = measure_distances(
            sphere_network.graph, NoError(), np.random.default_rng(0)
        )
        config = DetectorConfig(localization="mds")
        with caplog.at_level(logging.WARNING, logger="repro.core.pipeline"):
            BoundaryDetector(config).detect(sphere_network, measured=measured)
        assert not caplog.records


class TestBoundaryMaskValidation:
    def test_out_of_range_id_raises_value_error(self, sphere_detection):
        with pytest.raises(ValueError, match="outside"):
            sphere_detection.boundary_mask(10)

    def test_negative_id_raises_value_error(self):
        from repro.core.pipeline import BoundaryDetectionResult

        result = BoundaryDetectionResult(
            candidates={-1}, boundary={-1, 2}, groups=[[-1, 2]]
        )
        with pytest.raises(ValueError, match="-1"):
            result.boundary_mask(4)

    def test_valid_ids_unaffected(self, sphere_detection, sphere_network):
        mask = sphere_detection.boundary_mask(sphere_network.graph.n_nodes)
        assert int(mask.sum()) == sphere_detection.n_found
