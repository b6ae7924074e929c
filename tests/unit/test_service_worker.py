"""Unit tests for the in-process worker: execution, retries, degradation."""

import pytest

from repro.observability.export import validate_trace_lines
from repro.service.budgets import JobBudget
from repro.service.jobstore import (
    STATE_DEAD,
    STATE_DONE,
    JobSpec,
    JobStore,
    RetryBackoff,
)
from repro.service.worker import Worker, detector_config_for, execute_job

#: Small deployment so each pipeline run stays fast.
SMALL = dict(
    n_surface=60, n_interior=80, target_degree=12.0, theta=8, surface=True
)


@pytest.fixture
def store(tmp_path):
    return JobStore(tmp_path / "store")


def fast_worker(store, worker_id="w0", **kwargs):
    kwargs.setdefault("lease_ttl", 30.0)
    kwargs.setdefault("poll_interval", 0.01)
    kwargs.setdefault("backoff", RetryBackoff(base=0.0, jitter=0.0))
    return Worker(store, worker_id, **kwargs)


class TestDetectorConfigMapping:
    def test_error_model_selection(self):
        exact = detector_config_for(JobSpec(error=0.0), degraded=False)
        noisy = detector_config_for(JobSpec(error=0.2), degraded=False)
        assert type(exact.error_model).__name__ == "NoError"
        assert type(noisy.error_model).__name__ == "UniformAbsoluteError"

    def test_degraded_overrides(self):
        spec = JobSpec(engine="sparse", workers=4)
        config = detector_config_for(spec, degraded=True)
        # The degraded attempt keeps the job's engine: the pernode oracle is
        # slower and larger than sparse, so it cannot relieve either breach.
        assert config.localization_config.engine == spec.engine
        assert config.workers == 1
        full = detector_config_for(spec, degraded=False)
        assert full.localization_config.engine == "sparse"
        assert full.workers == 4


class TestExecuteJob:
    def test_full_run_result_shape(self):
        doc = execute_job(JobSpec(seed=3, **SMALL))
        assert doc["degraded"] is False
        assert doc["n_nodes"] == 140
        assert doc["n_boundary"] > 0
        assert doc["stats"]["n_truth"] == 60
        assert doc["surface"] is not None

    def test_degraded_run_skips_surface(self):
        doc = execute_job(JobSpec(seed=3, **SMALL), degraded=True)
        assert doc["degraded"] is True
        assert doc["surface"] is None


class TestWorkerLoop:
    def test_drains_queue_and_writes_valid_traces(self, store):
        for seed in (1, 2):
            store.submit(JobSpec(seed=seed, **SMALL))
        processed = fast_worker(store).run(exit_when_idle=True)
        assert processed == 2
        for record in store.jobs():
            assert record.state == STATE_DONE
            lines = store.trace_path(record.job_id).read_text().splitlines()
            assert validate_trace_lines(lines) == []
            assert any('"name": "job"' in line for line in lines)
        assert store.metrics.counter("service.jobs.completed").value == 2

    def test_max_jobs_stops_early(self, store):
        for seed in (1, 2, 3):
            store.submit(JobSpec(seed=seed, **SMALL))
        assert fast_worker(store).run(max_jobs=1) == 1
        assert store.counts()[STATE_DONE] == 1

    def test_metrics_snapshot_written(self, store):
        store.submit(JobSpec(seed=1, **SMALL))
        fast_worker(store, worker_id="snap").run(exit_when_idle=True)
        path = store.workers_dir / "snap.metrics.json"
        assert path.exists()
        assert "service.jobs.claimed" in path.read_text()


class TestFailureHandling:
    def test_crash_retried_then_dead_lettered(self, store):
        """An unknown scenario raises inside the pipeline: the job burns
        its attempts through requeues and dead-letters with a traceback."""
        rec = store.submit(
            JobSpec(scenario="no-such-shape", **SMALL), max_attempts=2
        )
        fast_worker(store).run(exit_when_idle=True)
        loaded = store.load(rec.job_id)
        assert loaded.state == STATE_DEAD
        assert loaded.attempts == 2
        assert loaded.error["type"] in ("KeyError", "ValueError")
        assert "traceback" in loaded.error
        assert store.metrics.counter("service.jobs.retried").value == 1
        assert store.metrics.counter("service.jobs.dead").value == 1

    def test_failure_trace_still_written(self, store):
        rec = store.submit(
            JobSpec(scenario="no-such-shape", **SMALL), max_attempts=1
        )
        fast_worker(store).run(exit_when_idle=True)
        lines = store.trace_path(rec.job_id).read_text().splitlines()
        assert validate_trace_lines(lines) == []  # partial trace, valid


class TestDegradationLadder:
    def test_wall_breach_completes_degraded(self, store):
        """A job that blows its wall budget is retried degraded -- and the
        degraded completion is done, flagged, and never cached."""
        spec = JobSpec(seed=4, test_delay_seconds=0.5, **SMALL)
        rec = store.submit(spec, max_attempts=3)
        worker = fast_worker(store, budget=JobBudget(wall_seconds=0.1))
        worker.run(exit_when_idle=True)
        loaded = store.load(rec.job_id)
        assert loaded.state == STATE_DONE
        assert loaded.degraded
        assert loaded.budget_breached == "wall_time"
        assert loaded.attempts == 2
        assert loaded.result["surface"] is None
        assert store.metrics.counter("service.jobs.degraded").value == 1
        # Degraded output must not poison the cache for future submits.
        twin = store.submit(JobSpec(seed=4, **SMALL))
        assert not twin.cache_hit

    def test_rss_breach_completes_degraded(self, store):
        """An unmeetable RSS budget triggers the same ladder via the
        post-hoc peak-RSS check."""
        rec = store.submit(JobSpec(seed=5, **SMALL), max_attempts=3)
        worker = fast_worker(store, budget=JobBudget(peak_rss_mb=0.001))
        worker.run(exit_when_idle=True)
        loaded = store.load(rec.job_id)
        assert loaded.state == STATE_DONE
        assert loaded.degraded
        assert loaded.budget_breached == "peak_rss"


class TestDeterminism:
    def test_canonical_state_independent_of_worker_split(self, tmp_path):
        """The acceptance byte-diff: the same submitted queue resolves to
        identical canonical bytes whether one worker drains it or two
        split it."""
        def drain(root, worker_ids):
            store = JobStore(root)
            for seed in (1, 2, 3):
                store.submit(JobSpec(seed=seed, **SMALL))
            for wid in worker_ids:
                fast_worker(store, worker_id=wid).run(exit_when_idle=True)
            return store

        solo = drain(tmp_path / "solo", ["only"])
        duo = drain(tmp_path / "duo", ["a", "b"])
        assert solo.canonical_state() == duo.canonical_state()

    def test_tick_traces_byte_identical_across_runs(self, tmp_path):
        def trace_bytes(root):
            store = JobStore(root)
            rec = store.submit(JobSpec(seed=1, **SMALL))
            fast_worker(store).run(exit_when_idle=True)
            return store.trace_path(rec.job_id).read_bytes()

        assert trace_bytes(tmp_path / "x") == trace_bytes(tmp_path / "y")
