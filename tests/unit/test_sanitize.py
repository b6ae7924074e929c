"""Unit tests for the repro-san dynamic determinism harness.

The matrix runner, trace normalization, and first-divergence reporting
are all exercised with injected runners -- no subprocesses here; the
end-to-end subprocess path lives in
``tests/integration/test_sanitize_pipeline.py``.
"""

import json

import pytest

from repro.analysis.sanitize import (
    Cell,
    CellError,
    ScenarioSpec,
    build_cells,
    collect_artifacts,
    first_divergence,
    main,
    normalize_trace,
    run_matrix,
)

SPEC = ScenarioSpec(surface_nodes=8, interior_nodes=8)


def cells_2x2():
    return build_cells(["0", "1"], [1, 2])


# ------------------------------------------------------ first_divergence


def test_first_divergence_none_for_identical_bytes():
    assert first_divergence("a.json", b"same\n", b"same\n") is None


def test_first_divergence_reports_line_number():
    base = b"alpha\nbeta\ngamma\n"
    other = b"alpha\nBETA\ngamma\n"
    report = first_divergence("mesh_0.obj", base, other)
    assert report.startswith("mesh_0.obj: line 2:")
    assert "beta" in report and "BETA" in report


def test_first_divergence_reports_json_field_and_span_name():
    base = json.dumps({"name": "ubf.shard", "attrs": {"n_nodes": 5, "kernel": "v"}})
    other = json.dumps({"name": "ubf.shard", "attrs": {"n_nodes": 7, "kernel": "v"}})
    report = first_divergence("trace.jsonl", base.encode(), other.encode())
    assert "line 1" in report
    assert "span 'ubf.shard'" in report
    assert "attrs.n_nodes" in report and "5" in report and "7" in report


def test_first_divergence_reports_nested_list_and_missing_key():
    base = json.dumps({"boundary": [1, 2, 3]})
    other = json.dumps({"boundary": [1, 9, 3]})
    report = first_divergence("result.json", base.encode(), other.encode())
    assert "boundary[1]" in report

    base = json.dumps({"a": 1, "b": 2})
    other = json.dumps({"a": 1})
    report = first_divergence("result.json", base.encode(), other.encode())
    assert "b (missing in this cell)" in report


def test_first_divergence_reports_extra_lines():
    report = first_divergence("trace.jsonl", b"one\n", b"one\ntwo\n")
    assert "1 line(s)" in report and "2" in report


# ------------------------------------------------------ normalize_trace


def test_normalize_trace_strips_run_identity_attrs():
    lines = [
        {"format_version": 1, "kind": "trace"},
        {"name": "cli.detect", "attrs": {"workers": 4, "seed": 0}},
        {"name": "detect", "attrs": {"config": {"workers": 4, "theta": 20}}},
    ]
    raw = ("\n".join(json.dumps(doc) for doc in lines) + "\n").encode()
    normalized = json.loads(normalize_trace(raw).decode().splitlines()[1])
    assert normalized["attrs"] == {"seed": 0}
    deeper = json.loads(normalize_trace(raw).decode().splitlines()[2])
    assert deeper["attrs"] == {"config": {"theta": 20}}


def test_normalize_trace_is_byte_stable_when_nothing_to_strip():
    doc = {"attrs": {"n_nodes": 3}, "name": "ubf.shard"}
    raw = (json.dumps(doc, sort_keys=True, separators=(", ", ": ")) + "\n").encode()
    assert normalize_trace(raw) == raw


# ----------------------------------------------------------- run_matrix


def write_artifacts(cell_dir, result, trace_attrs):
    (cell_dir / "result.json").write_text(json.dumps(result, sort_keys=True) + "\n")
    trace = {"name": "detect", "attrs": trace_attrs}
    (cell_dir / "trace.jsonl").write_text(json.dumps(trace) + "\n")


def test_run_matrix_identical_runner_passes(tmp_path):
    def runner(spec, cell, cell_dir):
        # workers appears only as a run-identity attr, which normalization
        # strips -- the matrix must report byte-identity.
        write_artifacts(cell_dir, {"boundary": [1, 2]}, {"workers": cell.workers})

    ok, report = run_matrix(SPEC, cells_2x2(), tmp_path, runner=runner)
    assert ok and report == []


def test_run_matrix_detects_injected_nondeterminism(tmp_path):
    def runner(spec, cell, cell_dir):
        # a worker-count leak into the result payload, as a sharding bug
        # that merges results in completion order would produce
        boundary = [1, 2] if cell.workers == 1 else [2, 1]
        write_artifacts(cell_dir, {"boundary": boundary}, {"n": 1})

    ok, report = run_matrix(SPEC, cells_2x2(), tmp_path, runner=runner)
    assert not ok
    assert len(report) == 2  # the two workers=2 cells diverge
    assert all("result.json" in line for line in report)
    assert "boundary[0]" in report[0]


def test_run_matrix_reports_missing_artifacts(tmp_path):
    def runner(spec, cell, cell_dir):
        write_artifacts(cell_dir, {"ok": True}, {})
        if cell.workers == 1:
            (cell_dir / "mesh_0.obj").write_text("v 0 0 0\n")

    ok, report = run_matrix(SPEC, cells_2x2(), tmp_path, runner=runner)
    assert not ok
    assert any("mesh_0.obj: missing in cell" in line for line in report)


def test_run_matrix_raises_on_empty_cell_and_short_matrix(tmp_path):
    def runner(spec, cell, cell_dir):
        pass

    with pytest.raises(CellError):
        run_matrix(SPEC, cells_2x2(), tmp_path, runner=runner)
    with pytest.raises(ValueError):
        run_matrix(SPEC, [Cell("0", 1)], tmp_path, runner=runner)


def test_collect_artifacts_orders_meshes_and_normalizes_trace(tmp_path):
    (tmp_path / "net.json").write_text("{}\n")
    (tmp_path / "result.json").write_text("{}\n")
    (tmp_path / "mesh_1.obj").write_text("v 1\n")
    (tmp_path / "mesh_0.obj").write_text("v 0\n")
    (tmp_path / "trace.jsonl").write_text(
        json.dumps({"name": "x", "attrs": {"workers": 3}}) + "\n"
    )
    artifacts = collect_artifacts(tmp_path)
    assert sorted(artifacts) == [
        "mesh_0.obj",
        "mesh_1.obj",
        "net.json",
        "result.json",
        "trace.jsonl",
    ]
    assert b"workers" not in artifacts["trace.jsonl"]


def test_engine_cells_form_their_own_groups(tmp_path):
    """Engines agree only to a float tolerance, so each engine's cells are
    byte-diffed against that engine's first cell, never across engines."""
    cells = build_cells(["0"], [1, 2], ["sparse", "pernode"])
    assert [c.engine for c in cells] == ["sparse", "sparse", "pernode", "pernode"]
    assert len({c.dirname for c in cells}) == 4

    def per_engine(spec, cell, cell_dir):
        write_artifacts(cell_dir, {"boundary": [cell.engine]}, {})

    ok, report = run_matrix(SPEC, cells, tmp_path / "clean", runner=per_engine)
    assert ok and report == []

    def leaky(spec, cell, cell_dir):
        write_artifacts(cell_dir, {"boundary": [cell.engine, cell.workers]}, {})

    ok, report = run_matrix(SPEC, cells, tmp_path / "leak", runner=leaky)
    assert not ok
    assert len(report) == 2  # one divergence per engine group


# ----------------------------------------------------------------- main


def test_main_self_test_detects_injected_divergence(tmp_path, capsys):
    assert main(["--self-test", "--workdir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "self-test OK" in out
    assert "workers_leak" in out


def test_main_usage_errors_exit_2(tmp_path, capsys):
    assert main(["--hash-seeds", "banana", "--workdir", str(tmp_path)]) == 2
    assert main(["--workers", "x", "--workdir", str(tmp_path)]) == 2
    assert main(["--engines", "batch", "--workdir", str(tmp_path)]) == 2
    # a single-cell matrix has nothing to compare against
    assert (
        main(
            ["--hash-seeds", "0", "--workers", "1", "--workdir", str(tmp_path)]
        )
        == 2
    )
    err = capsys.readouterr().err
    assert "error:" in err
