"""Unit tests for the command-line interface."""

import json

import numpy as np
import pytest

from repro.cli import _detector_from_args, build_parser, main
from repro.core.pipeline import BoundaryDetector
from repro.core.ubf import ubf_span_counters
from repro.io.serialization import load_network


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_generate_args(self):
        args = build_parser().parse_args(
            ["generate", "--scenario", "sphere", "--out", "x.json"]
        )
        assert args.scenario == "sphere"
        assert args.out == "x.json"

    def test_unknown_scenario_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["generate", "--scenario", "cube", "--out", "x"])

    def test_trace_flag_default_off(self):
        for argv in (
            ["detect", "--network", "x.json"],
            ["bench"],
        ):
            assert build_parser().parse_args(argv).trace is None

    def test_trace_subcommand_args(self):
        args = build_parser().parse_args(["trace", "t.jsonl", "--validate"])
        assert args.path == "t.jsonl"
        assert args.validate is True
        assert args.func.__name__ == "cmd_trace"


class TestEndToEnd:
    def test_generate_detect_surface(self, tmp_path):
        net_path = str(tmp_path / "net.json")
        result_path = str(tmp_path / "res.json")
        prefix = str(tmp_path / "mesh")

        assert (
            main(
                [
                    "generate",
                    "--scenario",
                    "sphere",
                    "--surface-nodes",
                    "250",
                    "--interior-nodes",
                    "450",
                    "--degree",
                    "26",
                    "--seed",
                    "4",
                    "--out",
                    net_path,
                ]
            )
            == 0
        )
        doc = json.loads((tmp_path / "net.json").read_text())
        assert len(doc["positions"]) == 700

        assert (
            main(["detect", "--network", net_path, "--out", result_path]) == 0
        )
        res = json.loads((tmp_path / "res.json").read_text())
        assert len(res["boundary"]) > 0

        assert (
            main(
                [
                    "surface",
                    "--network",
                    net_path,
                    "--result",
                    result_path,
                    "--out-prefix",
                    prefix,
                ]
            )
            == 0
        )
        assert (tmp_path / "mesh_0.obj").exists()

    def test_scenario_svg_render(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        svg_path = str(tmp_path / "scene.svg")
        assert (
            main(
                [
                    "scenario",
                    "--scenario",
                    "sphere",
                    "--surface-nodes",
                    "150",
                    "--interior-nodes",
                    "250",
                    "--degree",
                    "24",
                    "--svg",
                    svg_path,
                ]
            )
            == 0
        )
        text = (tmp_path / "scene.svg").read_text()
        assert text.startswith("<svg")
        assert "<circle" in text

    def test_analyze_reports_hole(self, capsys, tmp_path):
        net_path = str(tmp_path / "net.json")
        result_path = str(tmp_path / "res.json")
        assert (
            main(
                [
                    "generate",
                    "--scenario",
                    "one_hole",
                    "--surface-nodes",
                    "350",
                    "--interior-nodes",
                    "550",
                    "--degree",
                    "30",
                    "--seed",
                    "6",
                    "--out",
                    net_path,
                ]
            )
            == 0
        )
        assert main(["detect", "--network", net_path, "--out", result_path]) == 0
        capsys.readouterr()
        assert main(["analyze", "--network", net_path, "--result", result_path]) == 0
        out = capsys.readouterr().out
        assert "hole" in out or "no holes" in out

    def test_sweep_runs(self, capsys, tmp_path):
        assert (
            main(
                [
                    "sweep",
                    "--scenario",
                    "sphere",
                    "--surface-nodes",
                    "150",
                    "--interior-nodes",
                    "250",
                    "--degree",
                    "24",
                    "--levels",
                    "0,0.3",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "Fig. 1(g)" in out
        assert "30%" in out

    def test_detect_trace_roundtrip(self, capsys, tmp_path):
        from repro.observability.export import load_trace

        net_path = str(tmp_path / "net.json")
        trace_path = str(tmp_path / "run.trace.jsonl")
        assert (
            main(
                [
                    "generate",
                    "--scenario",
                    "sphere",
                    "--surface-nodes",
                    "250",
                    "--interior-nodes",
                    "450",
                    "--degree",
                    "26",
                    "--seed",
                    "4",
                    "--out",
                    net_path,
                ]
            )
            == 0
        )
        assert (
            main(["detect", "--network", net_path, "--trace", trace_path]) == 0
        )
        assert f"wrote {trace_path}" in capsys.readouterr().out

        roots = load_trace(trace_path)  # raises if schema-invalid
        (cli_span,) = roots
        assert cli_span.name == "cli.detect"

        def names(span):
            yield span.name
            for child in span.children:
                yield from names(child)

        seen = list(names(cli_span))
        for stage in ("detect", "localization", "ubf", "iff",
                      "grouping", "surface.group", "surface.attempt"):
            assert stage in seen
        # One ``ubf`` span, no shard children, counters of the run itself.
        (detect_span,) = [c for c in cli_span.children if c.name == "detect"]
        (ubf_span,) = [c for c in detect_span.children if c.name == "ubf"]
        assert seen.count("ubf") == 1 and ubf_span.children == []
        assert "ubf.shard" not in seen
        args = build_parser().parse_args(["detect", "--network", net_path])
        result = BoundaryDetector(_detector_from_args(args)).detect(
            load_network(net_path), rng=np.random.default_rng(args.seed)
        )
        counters = ubf_span_counters(result.ubf_outcomes)
        assert {key: ubf_span.attrs[key] for key in counters} == counters

        capsys.readouterr()
        assert main(["trace", trace_path, "--validate"]) == 0
        assert "OK" in capsys.readouterr().out

        assert main(["trace", trace_path]) == 0
        tree = capsys.readouterr().out
        assert tree.lstrip().startswith("cli.detect")
        assert "ubf" in tree and "ubf.shard" not in tree

    def test_trace_subcommand_rejects_invalid_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"kind": "trace", "format_version": 99}\n')
        assert main(["trace", str(bad), "--validate"]) == 1
        out = capsys.readouterr().out
        assert "INVALID" in out
        assert "format_version" in out
