"""Golden-result regression tests for the campaign manager.

Each test runs a small pinned campaign spec (committed next to this file
under ``tests/golden/``) through a fresh job store and byte-compares the
rendered tables against the checked-in golden.  Any change to network
generation, the detection pipeline, the identity-derived cell substreams,
or the table renderers shows up here as a byte diff.

To intentionally re-pin after such a change::

    PYTHONPATH=src python -m pytest tests/integration/test_campaign_golden.py \
        --update-goldens
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.evaluation.campaign import expand, load_spec
from repro.service.campaign import cell_job_spec, ensure_submitted, run_campaign
from repro.service.jobstore import JobStore
from repro.service.worker import Worker

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "golden"


def run_golden_campaign(tmp_path, name: str, update: bool, store=None) -> None:
    """Run ``tests/golden/<name>.json`` (against ``store``, a fresh one by
    default); compare (or rewrite) its golden."""
    spec = load_spec(GOLDEN_DIR / f"{name}.json")
    store = store if store is not None else JobStore(tmp_path / "store")
    report = run_campaign(store, spec)
    assert report.dead == 0
    assert report.tables is not None
    golden = GOLDEN_DIR / f"{name}.golden.txt"
    if update:
        golden.write_text(report.tables, encoding="utf-8")
        pytest.skip(f"rewrote {golden}")
    assert golden.exists(), (
        f"golden {golden} missing -- run with --update-goldens to create it"
    )
    assert report.tables == golden.read_text(encoding="utf-8")


def test_error_sweep_golden(tmp_path, update_goldens):
    """Fig. 1(g)-style error sweep, two levels x two config variants."""
    run_golden_campaign(tmp_path, "error_sweep_small", update_goldens)


def test_rerun_over_record_less_job_dir_matches_golden(tmp_path):
    """A driver killed inside ``submit`` -- after the job directory was
    allocated, before its record was written -- leaves a directory with
    no ``job.json``.  The rerun must resume past it to the same tables."""
    spec = load_spec(GOLDEN_DIR / "error_sweep_small.json")
    store = JobStore(tmp_path / "store")
    ensure_submitted(store, spec)
    assert Worker(store, "w-dying").run(max_jobs=1) == 1
    bare = store._allocate_job_id(cell_job_spec(expand(spec)[0]).cache_key())
    assert not (store.job_dir(bare) / "job.json").exists()
    run_golden_campaign(tmp_path, "error_sweep_small", False, store=store)
