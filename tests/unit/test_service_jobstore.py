"""Unit tests for the durable job store (states, leases, cache, backoff)."""

import json

import pytest

from repro.observability.export import TRACE_FORMAT_VERSION, validate_trace_lines
from repro.service.jobstore import (
    STATE_DEAD,
    STATE_DONE,
    STATE_LEASED,
    STATE_QUEUED,
    STATE_RUNNING,
    REAP_LOCK_TTL,
    JobRecord,
    JobSpec,
    JobStore,
    RetryBackoff,
    StaleAttemptError,
)


class FakeClock:
    """Settable clock so lease expiry is driven by the test, not sleeps."""

    def __init__(self, start=1000.0):
        self.now = start

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


@pytest.fixture
def clock():
    return FakeClock()


@pytest.fixture
def store(tmp_path, clock):
    return JobStore(tmp_path / "store", clock=clock)


class TestJobSpec:
    def test_cache_key_stable_and_semantic(self):
        a = JobSpec(seed=1)
        b = JobSpec(seed=1)
        c = JobSpec(seed=2)
        assert a.cache_key() == b.cache_key()
        assert a.cache_key() != c.cache_key()

    def test_operational_knob_excluded_from_key(self):
        """A delayed run must hit the cache entry of its undelayed twin."""
        plain = JobSpec(seed=5)
        delayed = JobSpec(seed=5, test_delay_seconds=3.0)
        assert plain.cache_key() == delayed.cache_key()

    def test_roundtrip(self):
        spec = JobSpec(scenario="cube", seed=9, error=0.1, surface=False)
        assert JobSpec.from_dict(spec.as_dict()) == spec

    @pytest.mark.parametrize(
        "field, value",
        [
            ("engine", "fast"),
            ("engine", "batch"),
            ("localization", "gps"),
            ("localization", "trilateration"),
        ],
    )
    def test_unrunnable_spec_rejected_when_built(self, field, value):
        """Every attempt of such a spec would fail; refuse it up front."""
        with pytest.raises(ValueError, match=field):
            JobSpec(**{field: value})
        with pytest.raises(ValueError, match=field):
            JobSpec.from_dict(dict(JobSpec().as_dict(), **{field: value}))


class TestSubmitAndClaim:
    def test_submit_creates_queued_record(self, store):
        rec = store.submit(JobSpec(seed=1))
        assert rec.state == STATE_QUEUED
        assert rec.attempts == 0
        loaded = store.load(rec.job_id)
        assert loaded.spec == rec.spec

    def test_job_ids_embed_submission_order(self, store):
        ids = [store.submit(JobSpec(seed=s)).job_id for s in range(3)]
        assert ids == sorted(ids)
        assert store.job_ids() == ids

    def test_claim_respects_submission_order(self, store):
        first = store.submit(JobSpec(seed=1))
        store.submit(JobSpec(seed=2))
        claimed = store.claim_next("w0", lease_ttl=10.0)
        assert claimed.job_id == first.job_id
        assert claimed.state == STATE_LEASED
        assert claimed.attempts == 1

    def test_claimed_job_not_reclaimable(self, store):
        store.submit(JobSpec(seed=1))
        assert store.claim_next("w0", lease_ttl=10.0) is not None
        assert store.claim_next("w1", lease_ttl=10.0) is None

    def test_claim_lock_arbitration(self, store):
        """A pre-created claim lock (a racing worker) blocks the claim."""
        rec = store.submit(JobSpec(seed=1))
        assert store._try_lock(rec.job_id, "claim-0-0.lock")
        assert store.claim_next("w0", lease_ttl=10.0) is None

    def test_not_before_defers_claim(self, store, clock):
        rec = store.submit(JobSpec(seed=1))
        loaded = store.load(rec.job_id)
        loaded.not_before = clock.now + 100.0
        store._write_record(loaded)
        assert store.claim_next("w0", lease_ttl=10.0) is None
        clock.advance(101.0)
        assert store.claim_next("w0", lease_ttl=10.0) is not None


class TestCompleteAndCache:
    def test_complete_populates_cache(self, store):
        spec = JobSpec(seed=1)
        rec = store.submit(spec)
        store.claim_next("w0", lease_ttl=10.0)
        store.complete(rec.job_id, "w0", {"n_boundary": 7})
        assert store.load(rec.job_id).state == STATE_DONE
        twin = store.submit(spec)
        assert twin.state == STATE_DONE
        assert twin.cache_hit
        assert twin.result == {"n_boundary": 7}

    def test_cache_hit_counts_metric_and_writes_empty_trace(self, store):
        spec = JobSpec(seed=1)
        rec = store.submit(spec)
        store.claim_next("w0", lease_ttl=10.0)
        store.complete(rec.job_id, "w0", {"ok": 1})
        twin = store.submit(spec)
        assert store.metrics.counter("service.cache.hits").value == 1
        lines = store.trace_path(twin.job_id).read_text().splitlines()
        assert len(lines) == 1  # header only: zero pipeline spans
        header = json.loads(lines[0])
        assert header["kind"] == "trace"
        # The header is built by the exporter, so it tracks the trace
        # schema version instead of silently drifting from it.
        assert header["format_version"] == TRACE_FORMAT_VERSION
        assert validate_trace_lines(lines) == []

    def test_degraded_result_never_cached(self, store):
        spec = JobSpec(seed=1)
        rec = store.submit(spec)
        store.claim_next("w0", lease_ttl=10.0)
        store.complete(rec.job_id, "w0", {"ok": 1}, degraded=True)
        twin = store.submit(spec)
        assert twin.state == STATE_QUEUED
        assert not twin.cache_hit


class TestFailureAndRetry:
    def test_fail_requeues_with_backoff(self, store, clock):
        rec = store.submit(JobSpec(seed=1), max_attempts=3)
        store.claim_next("w0", lease_ttl=10.0)
        failed = store.fail(
            rec.job_id, "w0", {"type": "Boom", "message": "x"},
            backoff=RetryBackoff(base=2.0, jitter=0.0),
        )
        assert failed.state == STATE_QUEUED
        assert failed.not_before == pytest.approx(clock.now + 2.0)
        assert failed.error["type"] == "Boom"

    def test_attempt_cap_dead_letters(self, store):
        rec = store.submit(JobSpec(seed=1), max_attempts=1)
        store.claim_next("w0", lease_ttl=10.0)
        failed = store.fail(rec.job_id, "w0", {"type": "Boom", "message": "x"})
        assert failed.state == STATE_DEAD
        assert store.metrics.counter("service.jobs.dead").value == 1

    def test_requeue_resets_budget(self, store):
        rec = store.submit(JobSpec(seed=1), max_attempts=1)
        store.claim_next("w0", lease_ttl=10.0)
        store.fail(rec.job_id, "w0", {"type": "Boom", "message": "x"})
        revived = store.requeue(rec.job_id)
        assert revived.state == STATE_QUEUED
        assert revived.attempts == 0
        assert revived.error is None

    def test_requeued_dead_job_is_claimable_again(self, store):
        """The end-to-end requeue contract: a dead job returned to the
        queue can actually be claimed despite its consumed claim locks
        (the generation bump gives the fresh attempts fresh lock names)."""
        rec = store.submit(JobSpec(seed=1), max_attempts=1)
        store.claim_next("w0", lease_ttl=10.0)
        store.fail(rec.job_id, "w0", {"type": "Boom", "message": "x"})
        assert store.load(rec.job_id).state == STATE_DEAD
        revived = store.requeue(rec.job_id)
        assert revived.generation == 1
        claimed = store.claim_next("w1", lease_ttl=10.0)
        assert claimed is not None
        assert claimed.job_id == rec.job_id
        assert claimed.state == STATE_LEASED
        assert claimed.attempts == 1
        # ... and its full lifecycle works: fail at the cap, requeue,
        # claim a third life.
        store.fail(rec.job_id, "w1", {"type": "Boom", "message": "y"})
        store.requeue(rec.job_id)
        assert store.claim_next("w2", lease_ttl=10.0) is not None

    def test_requeue_clears_degradation(self, store):
        """A requeue grants the *full* pipeline back: a job that died
        after a budget breach must not be revived permanently degraded."""
        rec = store.submit(JobSpec(seed=1), max_attempts=1)
        store.claim_next("w0", lease_ttl=10.0)
        store.mark_degraded_retry(rec.job_id, "w0", "wall_time")
        store.claim_next("w0", lease_ttl=10.0)
        store.fail(rec.job_id, "w0", {"type": "Boom", "message": "x"})
        assert store.load(rec.job_id).state == STATE_DEAD
        revived = store.requeue(rec.job_id)
        assert revived.degraded is False
        assert revived.budget_breached is None


class TestLeaseReaping:
    def test_live_lease_not_reaped(self, store, clock):
        store.submit(JobSpec(seed=1))
        store.claim_next("w0", lease_ttl=50.0)
        assert store.reap_expired() == []

    def test_expired_lease_requeued(self, store, clock):
        rec = store.submit(JobSpec(seed=1), max_attempts=3)
        store.claim_next("w0", lease_ttl=5.0)
        clock.advance(6.0)
        reaped = store.reap_expired(backoff=RetryBackoff(jitter=0.0))
        assert reaped == [rec.job_id]
        loaded = store.load(rec.job_id)
        assert loaded.state == STATE_QUEUED
        assert loaded.error["type"] == "LeaseExpired"
        assert store.metrics.counter("service.lease.expired").value == 1

    def test_heartbeat_extends_lease(self, store, clock):
        rec = store.submit(JobSpec(seed=1))
        store.claim_next("w0", lease_ttl=5.0)
        clock.advance(4.0)
        store.heartbeat(rec.job_id, "w0", lease_ttl=5.0)
        clock.advance(4.0)  # past original expiry, inside renewed one
        assert store.reap_expired() == []

    def test_expired_lease_at_cap_dead_letters(self, store, clock):
        rec = store.submit(JobSpec(seed=1), max_attempts=1)
        store.claim_next("w0", lease_ttl=5.0)
        clock.advance(6.0)
        store.reap_expired()
        assert store.load(rec.job_id).state == STATE_DEAD

    def test_double_reap_is_idempotent(self, store, clock):
        """The expire lock means one lapse is processed exactly once."""
        rec = store.submit(JobSpec(seed=1), max_attempts=5)
        store.claim_next("w0", lease_ttl=5.0)
        clock.advance(6.0)
        assert store.reap_expired() == [rec.job_id]
        # Force the record back into leased shape without a new attempt:
        # a second reap of the same attempt must be a no-op.
        loaded = store.load(rec.job_id)
        loaded.state = STATE_RUNNING
        store._write_record(loaded)
        assert store.reap_expired() == []

    def test_orphaned_claim_lock_reaped(self, store, clock):
        """A claimer killed after winning the lock, before writing the
        leased record, leaves a queued job that no worker can claim; its
        lock's expiry lets the reaper lapse that attempt."""
        rec = store.submit(JobSpec(seed=1), max_attempts=3)
        assert store._try_claim_lock(rec, "w-dead", clock.now + 5.0)
        assert store.claim_next("w0", lease_ttl=5.0) is None
        assert store.reap_expired() == []  # the claim is still live
        clock.advance(6.0)
        backoff = RetryBackoff(jitter=0.0)
        assert store.reap_expired(backoff=backoff) == [rec.job_id]
        assert store.reap_expired(backoff=backoff) == []
        loaded = store.load(rec.job_id)
        assert loaded.state == STATE_QUEUED
        assert loaded.attempts == 1
        assert loaded.error["type"] == "LeaseExpired"
        assert "w-dead" in loaded.error["message"]
        clock.advance(backoff.delay(loaded.spec.cache_key(), 2) + 0.1)
        claimed = store.claim_next("w0", lease_ttl=5.0)
        assert claimed.job_id == rec.job_id
        assert claimed.attempts == 2

    def test_orphaned_claim_at_cap_dead_letters(self, store, clock):
        rec = store.submit(JobSpec(seed=1), max_attempts=1)
        assert store._try_claim_lock(rec, "w-dead", clock.now + 5.0)
        clock.advance(6.0)
        assert store.reap_expired() == [rec.job_id]
        assert store.load(rec.job_id).state == STATE_DEAD

    def test_claim_lock_holds_expiry_and_lease_matches(self, store, clock):
        rec = store.submit(JobSpec(seed=1))
        claimed = store.claim_next("w0", lease_ttl=5.0)
        lock = store.job_dir(rec.job_id) / "claim-0-0.lock"
        assert json.loads(lock.read_text()) == {
            "worker": "w0",
            "expires_at": clock.now + 5.0,
        }
        lease = store.lease_of(rec.job_id)
        assert lease["expires_at"] == clock.now + 5.0
        assert lease["attempt"] == claimed.attempts
        assert sorted(p.name for p in store.job_dir(rec.job_id).iterdir()) == [
            "claim-0-0.lock",
            "job.json",
            "lease.json",
            "log.jsonl",
        ]

    def _stuck_reap(self, store, clock):
        """A leased job whose lease lapsed, with its expire lock taken."""
        rec = store.submit(JobSpec(seed=1), max_attempts=3)
        store.claim_next("w0", lease_ttl=5.0)
        clock.advance(6.0)
        return rec, store.job_dir(rec.job_id) / "expire-0-1.lock"

    def test_live_reap_lock_blocks_other_reapers(self, store, clock):
        rec, lock = self._stuck_reap(store, clock)
        assert store._try_reap_lock(rec.job_id, 0, 1, "r-busy", clock.now)
        assert json.loads(lock.read_text()) == {
            "reaper": "r-busy",
            "expires_at": clock.now + REAP_LOCK_TTL,
        }
        assert store.reap_expired(reaper="r1") == []
        assert store.load(rec.job_id).state == STATE_LEASED

    def test_lapsed_reap_lock_taken_over(self, store, clock):
        """A reaper killed between taking the expire lock and writing the
        requeued record: once its lock lapses, the next reaper finishes."""
        rec, lock = self._stuck_reap(store, clock)
        assert store._try_reap_lock(rec.job_id, 0, 1, "r-dead", clock.now)
        clock.advance(REAP_LOCK_TTL + 1.0)
        assert store.reap_expired(reaper="r1") == [rec.job_id]
        assert store.load(rec.job_id).state == STATE_QUEUED
        taken = store.job_dir(rec.job_id) / "expire-0-1.1.lock"
        assert json.loads(taken.read_text())["reaper"] == "r1"
        assert store.reap_expired(reaper="r2") == []

    def test_reap_lock_without_expiry_taken_over(self, store, clock):
        """An empty expire lock (no reaper, no expiry) counts as lapsed."""
        rec, lock = self._stuck_reap(store, clock)
        lock.touch()
        assert store.reap_expired() == [rec.job_id]
        loaded = store.load(rec.job_id)
        assert loaded.state == STATE_QUEUED
        assert loaded.error["type"] == "LeaseExpired"


class TestRecordLessJobDir:
    def test_jobs_skip_a_dir_without_record(self, store):
        """``submit`` allocates the directory before it writes the record;
        a kill in between must not break readers of every record."""
        first = store.submit(JobSpec(seed=1))
        bare = store._allocate_job_id(JobSpec(seed=2).cache_key())
        assert [r.job_id for r in store.jobs()] == [first.job_id]
        assert store.counts() == {STATE_QUEUED: 1}
        assert store.job_ids() == [first.job_id, bare]
        second = store.submit(JobSpec(seed=2))
        assert [r.job_id for r in store.jobs()] == [first.job_id, second.job_id]


class TestStaleWorkerFencing:
    """A worker that stalls past its lease must not corrupt the live
    attempt: outcomes, failures, and heartbeats from a lapsed claim are
    discarded."""

    def _lapse_and_reclaim(self, store, clock):
        """Claim by w0, let the lease lapse, reap, re-claim by w1.
        Returns the job id; w0's fencing token is (generation 0, attempt
        1), the live attempt is w1's (generation 0, attempt 2)."""
        rec = store.submit(JobSpec(seed=1), max_attempts=5)
        store.claim_next("w0", lease_ttl=5.0)
        clock.advance(6.0)
        store.reap_expired(backoff=RetryBackoff(base=0.0, jitter=0.0))
        reclaimed = store.claim_next("w1", lease_ttl=50.0)
        assert reclaimed is not None and reclaimed.attempts == 2
        return rec.job_id

    def test_stale_complete_discarded(self, store, clock):
        job_id = self._lapse_and_reclaim(store, clock)
        with pytest.raises(StaleAttemptError):
            store.complete(job_id, "w0", {"ok": 0}, attempt=1, generation=0)
        loaded = store.load(job_id)
        assert loaded.state == STATE_LEASED  # the live attempt, untouched
        assert loaded.worker_id == "w1"
        # ... and the live worker's own completion still lands.
        store.complete(job_id, "w1", {"ok": 1}, attempt=2, generation=0)
        assert store.load(job_id).state == STATE_DONE

    def test_stale_fail_discarded(self, store, clock):
        job_id = self._lapse_and_reclaim(store, clock)
        with pytest.raises(StaleAttemptError):
            store.fail(
                job_id, "w0", {"type": "Boom", "message": "late"},
                attempt=1, generation=0,
            )
        loaded = store.load(job_id)
        assert loaded.state == STATE_LEASED
        assert loaded.attempts == 2  # no retry burned by the stale report

    def test_stale_heartbeat_refused(self, store, clock):
        job_id = self._lapse_and_reclaim(store, clock)
        expiry_before = store.lease_of(job_id)["expires_at"]
        assert not store.heartbeat(
            job_id, "w0", lease_ttl=500.0, attempt=1, generation=0
        )
        assert store.lease_of(job_id)["expires_at"] == expiry_before
        assert store.heartbeat(
            job_id, "w1", lease_ttl=500.0, attempt=2, generation=0
        )
        assert store.metrics.counter("service.stale.heartbeats").value == 1

    def test_stale_mark_running_discarded(self, store, clock):
        """A stale worker must not resurrect a reaped job to running --
        that would strand it (the lapse's expire lock is already spent)."""
        rec = store.submit(JobSpec(seed=1), max_attempts=5)
        store.claim_next("w0", lease_ttl=5.0)
        clock.advance(6.0)
        store.reap_expired(backoff=RetryBackoff(base=0.0, jitter=0.0))
        with pytest.raises(StaleAttemptError):
            store.mark_running(rec.job_id, "w0", attempt=1, generation=0)
        assert store.load(rec.job_id).state == STATE_QUEUED

    def test_pre_requeue_token_is_stale(self, store):
        """A manual requeue bumps the generation, so any token from the
        job's previous life is fenced out even if attempt numbers align."""
        rec = store.submit(JobSpec(seed=1), max_attempts=1)
        store.claim_next("w0", lease_ttl=10.0)
        store.fail(rec.job_id, "w0", {"type": "Boom", "message": "x"})
        store.requeue(rec.job_id)
        store.claim_next("w1", lease_ttl=10.0)  # generation 1, attempt 1
        with pytest.raises(StaleAttemptError):
            store.complete(rec.job_id, "w0", {"ok": 0}, attempt=1, generation=0)
        store.complete(rec.job_id, "w1", {"ok": 1}, attempt=1, generation=1)
        assert store.load(rec.job_id).state == STATE_DONE

    def test_stale_discard_logged(self, store, clock):
        job_id = self._lapse_and_reclaim(store, clock)
        with pytest.raises(StaleAttemptError):
            store.complete(job_id, "w0", {"ok": 0}, attempt=1, generation=0)
        log = (store.job_dir(job_id) / "log.jsonl").read_text()
        events = [json.loads(line)["event"] for line in log.splitlines()]
        assert "stale_discarded" in events


class TestBackoff:
    def test_exponential_schedule_capped(self):
        backoff = RetryBackoff(base=1.0, factor=2.0, cap=5.0, jitter=0.0)
        key = JobSpec(seed=1).cache_key()
        assert [backoff.delay(key, n) for n in (2, 3, 4, 5)] == [
            1.0, 2.0, 4.0, 5.0,
        ]

    def test_jitter_deterministic_per_job_attempt(self):
        backoff = RetryBackoff(base=1.0, jitter=0.2)
        key = JobSpec(seed=1).cache_key()
        assert backoff.delay(key, 2) == backoff.delay(key, 2)
        other = JobSpec(seed=2).cache_key()
        assert backoff.delay(key, 2) != backoff.delay(other, 2)

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryBackoff(factor=0.5)
        with pytest.raises(ValueError):
            RetryBackoff(jitter=1.5)
        with pytest.raises(ValueError):
            RetryBackoff(base=10.0, cap=1.0)


class TestCanonicalState:
    def test_excludes_operational_fields(self, store, clock):
        rec = store.submit(JobSpec(seed=1))
        store.claim_next("w-alpha", lease_ttl=10.0)
        store.complete(rec.job_id, "w-alpha", {"ok": 1})
        text = store.canonical_state()
        assert "w-alpha" not in text
        assert "not_before" not in text
        assert "updated_at" not in text
        docs = json.loads(text)
        assert docs[0]["state"] == STATE_DONE
        assert docs[0]["attempts"] == 1

    def test_identical_across_worker_names_and_clocks(self, tmp_path):
        """Two stores fed the same queue through differently named workers
        at different times project to identical canonical bytes."""
        def run(root, worker, start):
            clock = FakeClock(start)
            store = JobStore(root, clock=clock)
            rec = store.submit(JobSpec(seed=1))
            store.claim_next(worker, lease_ttl=10.0)
            clock.advance(3.0)
            store.complete(rec.job_id, worker, {"n_boundary": 4})
            return store.canonical_state()

        a = run(tmp_path / "a", "w-one", 100.0)
        b = run(tmp_path / "b", "w-two", 9999.0)
        assert a == b

    def test_error_traceback_excluded(self, store):
        rec = store.submit(JobSpec(seed=1), max_attempts=1)
        store.claim_next("w0", lease_ttl=10.0)
        store.fail(
            rec.job_id, "w0",
            {"type": "Boom", "message": "x", "traceback": "/tmp/xyz123 frame"},
        )
        text = store.canonical_state()
        assert "Boom" in text
        assert "xyz123" not in text


class TestRecordRoundtrip:
    def test_format_version_checked(self, store):
        rec = store.submit(JobSpec(seed=1))
        doc = json.loads((store.job_dir(rec.job_id) / "job.json").read_text())
        doc["format_version"] = 99
        with pytest.raises(ValueError, match="unsupported job format"):
            JobRecord.from_dict(doc)

    def test_stored_spec_with_removed_localization_is_skipped(self, store):
        """A queued record naming a mode this build no longer runs fails
        to load and is passed over by claims, untouched."""
        rec = store.submit(JobSpec(seed=1))
        path = store.job_dir(rec.job_id) / "job.json"
        doc = json.loads(path.read_text())
        doc["spec"]["localization"] = "trilateration"
        path.write_text(json.dumps(doc, sort_keys=True) + "\n")
        before = path.read_bytes()
        entries = sorted(p.name for p in store.job_dir(rec.job_id).iterdir())
        with pytest.raises(ValueError, match="localization"):
            store.load(rec.job_id)
        assert store.claim_next("w0", lease_ttl=10.0) is None
        assert path.read_bytes() == before
        assert sorted(p.name for p in store.job_dir(rec.job_id).iterdir()) == entries
        assert not (store.job_dir(rec.job_id) / "lease.json").exists()

    def test_transition_log_is_append_only_jsonl(self, store, clock):
        rec = store.submit(JobSpec(seed=1))
        store.claim_next("w0", lease_ttl=10.0)
        store.complete(rec.job_id, "w0", {"ok": 1})
        lines = (store.job_dir(rec.job_id) / "log.jsonl").read_text().splitlines()
        events = [json.loads(line)["event"] for line in lines]
        assert events == ["submitted", "leased", "done"]
