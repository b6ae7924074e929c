"""Campaign-over-job-service properties: memoization, resume, invariance.

The claims under test (ISSUE 8 acceptance criteria):

* re-running a campaign against the same store executes **zero** new
  cells -- verified against the job store's append-only transition logs,
  not just the report counters;
* a campaign interrupted at a job boundary and re-run converges to the
  same final ``canonical_state()`` and byte-identical tables as an
  uninterrupted run;
* worker count does not change the outcome;
* a driver SIGKILLed mid-campaign converges after a re-run to the same
  tables as an uninterrupted run.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.evaluation.campaign import (
    CELL_KIND_ERROR,
    CampaignSpec,
    execute_cell,
    expand,
)
from repro.service.campaign import (
    CampaignIncomplete,
    campaign_status,
    cell_job_spec,
    drain_campaign,
    ensure_submitted,
    render_from_store,
    run_campaign,
)
from repro.service.jobstore import JobSpec, JobStore
from repro.service.worker import Worker, execute_job

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "golden"

SPEC = CampaignSpec(
    name="t-service",
    kind="error_sweep",
    scenarios=("sphere",),
    seeds=(0,),
    n_surface=60,
    n_interior=100,
    target_degree=12.0,
    theta=10,
    levels=(0.0, 0.4),
)


def leased_events(store: JobStore, job_id: str) -> int:
    """Count claim transitions in the job's append-only log."""
    log_path = store.job_dir(job_id) / "log.jsonl"
    if not log_path.exists():
        return 0
    count = 0
    with open(log_path, "r", encoding="utf-8") as fh:
        for line in fh:
            if json.loads(line)["event"] == "leased":
                count += 1
    return count


class TestMemoization:
    def test_rerun_executes_zero_cells(self, tmp_path):
        store = JobStore(tmp_path / "store")
        first = run_campaign(store, SPEC)
        assert first.executed == len(expand(SPEC)) == first.done
        claims_after_first = {
            job_id: leased_events(store, job_id) for job_id in first.job_ids
        }
        assert all(count == 1 for count in claims_after_first.values())

        second = run_campaign(store, SPEC)
        assert second.submitted == 0
        assert second.executed == 0
        assert second.reused == len(expand(SPEC))
        # The store log proves nothing ran: no new claim transitions.
        assert {
            job_id: leased_events(store, job_id) for job_id in second.job_ids
        } == claims_after_first
        assert second.tables == first.tables

    def test_overlapping_campaign_reuses_shared_cells(self, tmp_path):
        store = JobStore(tmp_path / "store")
        run_campaign(store, SPEC)
        wider = CampaignSpec.from_dict(
            {**SPEC.as_dict(), "levels": [0.0, 0.4, 0.2]}
        )
        report = run_campaign(store, wider)
        # Only the genuinely new (level=0.2) cell executed.
        assert report.submitted == 1
        assert report.executed == 1
        assert report.reused == 2

    def test_campaign_metrics_recorded(self, tmp_path):
        store = JobStore(tmp_path / "store")
        run_campaign(store, SPEC)
        counters = store.metrics.as_dict()["counters"]
        assert counters["campaign.runs"] == 1
        assert counters["campaign.cells.total"] == len(expand(SPEC))
        assert counters["campaign.cells.executed"] == len(expand(SPEC))


class TestResume:
    def test_job_boundary_interruption_converges_exactly(self, tmp_path):
        uninterrupted = JobStore(tmp_path / "a")
        reference = run_campaign(uninterrupted, SPEC)

        interrupted = JobStore(tmp_path / "b")
        # Simulate a driver death after one cell: submit everything, let a
        # worker process exactly one job, then abandon the run.
        ensure_submitted(interrupted, SPEC)
        assert Worker(interrupted, "w-dying").run(max_jobs=1) == 1
        status = campaign_status(interrupted, SPEC)
        assert status.counts() == {"done": 1, "queued": 1}
        with pytest.raises(CampaignIncomplete):
            render_from_store(interrupted, SPEC)

        resumed = run_campaign(interrupted, SPEC)
        assert resumed.submitted == 0
        assert resumed.reused == 2
        assert resumed.executed == 1  # only the abandoned cell
        assert resumed.tables == reference.tables
        assert interrupted.canonical_state() == uninterrupted.canonical_state()

    def test_status_slices_track_progress(self, tmp_path):
        store = JobStore(tmp_path / "store")
        status = campaign_status(store, SPEC)
        assert status.counts() == {"unsubmitted": 2}
        assert not status.complete
        ensure_submitted(store, SPEC)
        assert Worker(store, "w0").run(max_jobs=1) == 1
        slices = campaign_status(store, SPEC).slice_counts()
        assert slices["level"]["0.0"] == {"done": 1}
        assert slices["level"]["0.4"] == {"queued": 1}
        assert slices["scenario"]["sphere"] == {"done": 1, "queued": 1}


class TestKilledReaper:
    def test_lapsed_reap_lock_is_taken_over(self, tmp_path):
        """A reaper killed after taking a lapsed attempt's expire lock and
        before requeueing the job: the job stays leased under a lapsed
        lease with the lock taken.  A later reaper must take the reap
        over, so the campaign drains to the uninterrupted tables."""
        reference = run_campaign(JobStore(tmp_path / "a"), SPEC)
        store = JobStore(tmp_path / "b")
        ensure_submitted(store, SPEC)
        claimed = store.claim_next("w-dead", lease_ttl=1.0, now=time.time() - 60.0)
        assert claimed.state == "leased" and claimed.attempts == 1
        (store.job_dir(claimed.job_id) / "expire-0-1.lock").touch()

        drained = threading.Thread(
            target=drain_campaign,
            args=(store, [r.job_id for r in store.jobs()]),
            daemon=True,
        )
        drained.start()
        drained.join(timeout=120.0)
        assert not drained.is_alive(), "drain_campaign never finished"
        assert store.load(claimed.job_id).state == "done"
        assert render_from_store(store, SPEC) == reference.tables


class TestInvariance:
    def test_worker_count_invariance(self, tmp_path):
        serial = JobStore(tmp_path / "serial")
        threaded = JobStore(tmp_path / "threaded")
        one = run_campaign(serial, SPEC, workers=1)
        two = run_campaign(threaded, SPEC, workers=2)
        assert one.tables == two.tables
        assert serial.canonical_state() == threaded.canonical_state()

    def test_cell_order_invariance(self, tmp_path):
        """Submission order changes job ids, never cell results."""
        fwd_store = JobStore(tmp_path / "fwd")
        rev_store = JobStore(tmp_path / "rev")
        reversed_spec = CampaignSpec.from_dict(
            {**SPEC.as_dict(), "levels": [0.4, 0.0]}
        )
        fwd = run_campaign(fwd_store, SPEC)
        rev = run_campaign(rev_store, reversed_spec)
        fwd_by_level = {
            cell.axes["level"]: fwd_store.load(job_id).result
            for cell, job_id in zip(expand(SPEC), fwd.job_ids)
        }
        rev_by_level = {
            cell.axes["level"]: rev_store.load(job_id).result
            for cell, job_id in zip(expand(reversed_spec), rev.job_ids)
        }
        assert fwd_by_level == rev_by_level


class TestKillMidCampaign:
    def test_sigkill_then_rerun_converges_to_same_tables(self, tmp_path):
        spec_path = GOLDEN_DIR / "error_sweep_small.json"
        golden = (GOLDEN_DIR / "error_sweep_small.golden.txt").read_text(
            encoding="utf-8"
        )
        root = tmp_path / "store"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(
            Path(__file__).resolve().parent.parent.parent / "src"
        )
        proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.cli",
                "campaign",
                "run",
                "--spec",
                str(spec_path),
                "--root",
                str(root),
                "--lease-ttl",
                "2",
                "--no-output",
            ],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        # Mid-campaign: the first cell's trace is written after its job is
        # done, and the other cells still need a detection run each.
        deadline = time.monotonic() + 120.0
        while (
            proc.poll() is None
            and time.monotonic() < deadline
            and not any((root / "traces").glob("*.trace.jsonl"))
        ):
            time.sleep(0.01)
        proc.send_signal(signal.SIGKILL)
        proc.wait()

        store = JobStore(root)
        spec = CampaignSpec.from_dict(
            json.loads(spec_path.read_text(encoding="utf-8"))
        )
        # The rerun adopts whatever the killed driver durably reached
        # (including a possibly still-leased job, reaped after its 2 s TTL)
        # and converges to the exact golden tables.
        report = run_campaign(store, spec, lease_ttl=2.0)
        assert report.dead == 0
        assert report.submitted + report.reused == len(expand(spec))
        assert report.executed >= 1  # the kill left cells to finish
        assert report.tables == golden


class TestExecuteJobDispatch:
    def test_cell_job_runs_through_worker_and_caches(self, tmp_path):
        store = JobStore(tmp_path / "store")
        cell = expand(SPEC)[0]
        spec = cell_job_spec(cell)
        assert spec.kind == CELL_KIND_ERROR
        record = store.submit(spec)
        assert not record.cache_hit
        Worker(store, "w0").run(exit_when_idle=True)
        done = store.load(record.job_id)
        assert done.state == "done"
        assert done.result == execute_cell(cell.kind, cell.params)
        # Same semantic content -> submit-time cache hit, born done.
        twin = store.submit(
            JobSpec(kind=cell.kind, cell=dict(cell.params), test_delay_seconds=0.0)
        )
        assert twin.job_id != record.job_id
        assert twin.cache_hit and twin.state == "done"
        assert twin.result == done.result

    def test_unknown_cell_kind_dead_letters(self, tmp_path):
        """A stored job of an unknown kind -- including the deleted
        fault-grid cell kind -- dead-letters instead of crashing the worker."""
        store = JobStore(tmp_path / "store")
        for kind in ("eval.mystery", "eval.fault_cell"):
            record = store.submit(JobSpec(kind=kind, cell={}), max_attempts=1)
            Worker(store, "w0").run(exit_when_idle=True)
            dead = store.load(record.job_id)
            assert dead.state == "dead"
            assert dead.error["type"] == "ValueError"

    def test_cell_payload_drives_cache_key(self):
        base = cell_job_spec(expand(SPEC)[0])
        other = cell_job_spec(expand(SPEC)[1])
        assert base.cache_key() != other.cache_key()
        assert base.cache_key() != JobSpec().cache_key()

    def test_direct_execute_job_matches_execute_cell(self):
        cell = expand(SPEC)[0]
        assert execute_job(cell_job_spec(cell)) == execute_cell(
            cell.kind, cell.params
        )
