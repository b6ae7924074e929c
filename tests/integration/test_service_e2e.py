"""End-to-end service tests: real worker processes, real kills.

The acceptance scenario of the service layer: two ``repro-serve work``
processes drain one queue, one of them is SIGKILLed mid-job, its lease
lapses, the survivor re-leases and completes the job, and every artifact
(job records, per-job JSONL traces, canonical state) comes out valid and
deterministic.

Deployment sizes default to laptop-small so tier-1 stays fast; the CI
service job exports ``REPRO_SERVICE_SCALE=2k`` to run the kill test
against the pinned 2k-node bench deployment (sphere, 800 surface / 1200
interior, target degree 24, seed 11 -- ``BENCH_SCENARIOS["ubf_2k"]``).
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.observability.export import validate_trace_lines
from repro.service.jobstore import TERMINAL_STATES, JobSpec, JobStore

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC_DIR = REPO_ROOT / "src"

#: Laptop-small deployment for the default (tier-1) run.
SMALL = dict(n_surface=60, n_interior=80, target_degree=12.0, theta=8)

#: The pinned 2k-node bench deployment (BENCH_SCENARIOS["ubf_2k"]).
SCALE_2K = dict(n_surface=800, n_interior=1200, target_degree=24.0, theta=20)


def _kill_spec_kwargs() -> dict:
    if os.environ.get("REPRO_SERVICE_SCALE") == "2k":
        return dict(SCALE_2K)
    return dict(SMALL)


def _child_env() -> dict:
    env = dict(os.environ)
    existing = env.get("PYTHONPATH", "")
    env["PYTHONPATH"] = (
        f"{SRC_DIR}{os.pathsep}{existing}" if existing else str(SRC_DIR)
    )
    return env


def _spawn_worker(root, worker_id, *extra):
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro.service.cli", "work",
            "--root", str(root), "--worker-id", worker_id,
            "--poll-interval", "0.1", "--backoff-base", "0",
            "--backoff-jitter", "0", *extra,
        ],
        env=_child_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )


def _serve(*args):
    return subprocess.run(
        [sys.executable, "-m", "repro.service.cli", *args],
        env=_child_env(),
        capture_output=True,
        text=True,
    )


def _all_terminal(store):
    return all(record.state in TERMINAL_STATES for record in store.jobs())


def _wait_terminal(store, timeout=180.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if store.jobs() and _all_terminal(store):
            return
        time.sleep(0.25)
    pytest.fail(f"queue not drained in {timeout}s: {store.counts()}")


class TestKillAWorker:
    def test_sigkilled_worker_job_is_releases_and_completed(self, tmp_path):
        """SIGKILL one of two workers mid-job: the lease lapses, the
        survivor re-leases the job under backoff, and the queue drains to
        done with a schema-valid per-job trace."""
        root = tmp_path / "store"
        store = JobStore(root)
        kwargs = _kill_spec_kwargs()
        # The victim's job sleeps long enough to be killed mid-attempt.
        slow = store.submit(
            JobSpec(seed=11, test_delay_seconds=8.0, **kwargs), max_attempts=3
        )
        fast_ids = [
            store.submit(JobSpec(seed=s, **kwargs), max_attempts=3).job_id
            for s in (12, 13)
        ]

        # Victim worker with a short lease; claims the slow job first
        # (submission order) and dies inside its 8-second sleep.
        victim = _spawn_worker(root, "victim", "--lease-ttl", "2")
        try:
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline:
                record = store.load(slow.job_id)
                if record.state == "running":
                    break
                time.sleep(0.1)
            else:
                pytest.fail("victim never started the slow job")
            victim.kill()
            victim.wait(timeout=10)

            survivor = _spawn_worker(
                root, "survivor", "--lease-ttl", "2", "--exit-when-idle"
            )
            try:
                # The survivor idles out only once nothing is claimable,
                # but the lapsed lease needs ~2s to expire first -- so it
                # may exit early once; re-run until the queue is drained.
                deadline = time.monotonic() + 180.0
                while time.monotonic() < deadline:
                    survivor.wait(timeout=180)
                    if _all_terminal(store):
                        break
                    time.sleep(0.5)
                    survivor = _spawn_worker(
                        root, "survivor", "--lease-ttl", "2",
                        "--exit-when-idle",
                    )
            finally:
                if survivor.poll() is None:
                    survivor.kill()
                    survivor.wait(timeout=10)
        finally:
            if victim.poll() is None:
                victim.kill()
                victim.wait(timeout=10)

        record = store.load(slow.job_id)
        assert record.state == "done", record.error
        # The kill burned attempt 1; the survivor's re-lease is attempt 2.
        assert record.attempts == 2
        assert record.error is None
        assert store.load(fast_ids[0]).state == "done"
        assert store.load(fast_ids[1]).state == "done"
        # The lapse was observed and logged as such.
        log = (store.job_dir(slow.job_id) / "log.jsonl").read_text()
        events = [json.loads(line)["event"] for line in log.splitlines()]
        assert "lease_expired" in events
        assert events.count("leased") == 2
        # The completed attempt's trace is schema-valid and has spans.
        lines = store.trace_path(slow.job_id).read_text().splitlines()
        assert validate_trace_lines(lines) == []
        assert len(lines) > 1


class TestCliSmoke:
    def test_submit_work_status_requeue_roundtrip(self, tmp_path):
        root = tmp_path / "store"
        submit = _serve(
            "submit", "--root", str(root), "--surface-nodes", "60",
            "--interior-nodes", "80", "--degree", "12", "--theta", "8",
            "--seed", "21",
        )
        assert submit.returncode == 0, submit.stderr
        job_id, state = submit.stdout.split()
        assert state == "queued"

        work = _serve(
            "work", "--root", str(root), "--worker-id", "cli-w",
            "--exit-when-idle", "--poll-interval", "0.1",
        )
        assert work.returncode == 0, work.stderr
        assert "processed 1 job(s)" in work.stdout

        status = _serve("status", "--root", str(root))
        assert status.returncode == 0
        assert "done=1" in status.stdout

        # Resubmitting the identical spec is a cache hit, born done.
        twin = _serve(
            "submit", "--root", str(root), "--surface-nodes", "60",
            "--interior-nodes", "80", "--degree", "12", "--theta", "8",
            "--seed", "21",
        )
        assert "(cache hit)" in twin.stdout
        twin_id = twin.stdout.split()[0]
        store = JobStore(root)
        trace = store.trace_path(twin_id).read_text().splitlines()
        assert validate_trace_lines(trace) == []
        assert len(trace) == 1  # header only: zero pipeline spans

        # The one-record store status table shows both jobs.
        one = _serve("status", "--root", str(root), "--job", job_id)
        assert json.loads(one.stdout)["state"] == "done"

    def test_canonical_status_matches_store_projection(self, tmp_path):
        root = tmp_path / "store"
        store = JobStore(root)
        store.submit(JobSpec(seed=3, **SMALL))
        out = _serve("status", "--root", str(root), "--canonical")
        assert out.returncode == 0
        assert out.stdout == store.canonical_state()


class TestWallBudgetDegradation:
    def test_budget_blown_job_completes_degraded_via_cli(self, tmp_path):
        root = tmp_path / "store"
        store = JobStore(root)
        store.submit(
            JobSpec(seed=31, test_delay_seconds=1.0, **SMALL), max_attempts=3
        )
        work = _serve(
            "work", "--root", str(root), "--worker-id", "budgeted",
            "--exit-when-idle", "--poll-interval", "0.1",
            "--wall-budget", "0.2", "--backoff-base", "0",
            "--backoff-jitter", "0",
        )
        assert work.returncode == 0, work.stderr
        record = store.jobs()[0]
        assert record.state == "done"
        assert record.degraded
        assert record.budget_breached == "wall_time"
        assert record.result["surface"] is None


class TestQueueDeterminism:
    def test_one_vs_two_workers_byte_identical_canonical_state(self, tmp_path):
        """Identical queue + seeds => byte-identical job-store final
        states and tick traces, regardless of worker count."""
        def drain(root, n_workers):
            store = JobStore(root)
            for seed in (41, 42, 43):
                store.submit(JobSpec(seed=seed, **SMALL))
            workers = [
                _spawn_worker(
                    root, f"w{i}", "--lease-ttl", "30", "--exit-when-idle"
                )
                for i in range(n_workers)
            ]
            for proc in workers:
                out, err = proc.communicate(timeout=300)
                assert proc.returncode == 0, err
            _wait_terminal(store)
            return store

        solo = drain(tmp_path / "solo", 1)
        duo = drain(tmp_path / "duo", 2)
        assert solo.canonical_state() == duo.canonical_state()
        for jid_a, jid_b in zip(solo.job_ids(), duo.job_ids()):
            assert jid_a == jid_b
            assert (
                solo.trace_path(jid_a).read_bytes()
                == duo.trace_path(jid_b).read_bytes()
            )
