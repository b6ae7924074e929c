"""Durable file-backed job store for the boundary-detection service.

One directory tree *is* the queue: every job is a directory holding an
atomically-rewritten ``job.json`` record, an append-only ``log.jsonl``
transition log, and exclusive-create lock files that arbitrate the
only two races the design admits (two workers claiming the same queued
job; two reapers expiring the same lease).  No daemon, no database, no
in-memory state that a crash can lose: a worker that dies mid-job leaves
an expiring lease behind, and any other worker's next poll requeues the
work.  The claim lock itself carries the claim's expiry, so a worker
killed between winning a claim and recording it is reaped the same way;
the expire lock carries its reaper's expiry too, so a reaper killed
mid-reap hands the reap to the next one.

Job lifecycle::

    queued -> leased -> running -> done
                  \\          \\-> failed -> queued (backoff) | dead
                   \\-> (lease expires) -> queued (backoff) | dead

``failed`` is transient: it is logged, then immediately resolved to
``queued`` (with exponential backoff) or ``dead`` when the attempt cap is
exhausted.  Dead-lettered jobs keep the last error (type, message,
traceback) for post-mortems.

**Result cache.**  Results are keyed on the content hash of the job's
*semantic* fields (:meth:`JobSpec.cache_key` -- scenario, deployment,
detector, and seed parameters; operational knobs are excluded).
:meth:`JobStore.submit` consults the cache -- and only ``submit`` does:
a submit-time hit makes the job be born ``done`` with ``cache_hit`` set,
while claim-time checks would make the final store state depend on which
worker got there first.  Degraded results never populate the cache (they
were produced under a reduced pipeline).

**Fencing.**  Claiming a job hands the worker a fencing token -- the
record's ``(generation, attempts)`` pair.  Every outcome call
(:meth:`JobStore.mark_running`, :meth:`JobStore.complete`,
:meth:`JobStore.fail`, :meth:`JobStore.mark_degraded_retry`) re-checks
the token and the worker id against the current record and raises
:class:`StaleAttemptError` when they no longer match, and
:meth:`JobStore.heartbeat` refuses (returns ``False``) to renew a lease
the caller lost.  A worker that stalls past its lease TTL therefore
cannot overwrite the live attempt's state after the reaper hands the job
to someone else -- each lapse is processed exactly once.

**Determinism contract.**  :meth:`JobStore.canonical_state` projects the
final records onto their semantic fields only (specs, states, attempt
counts, results, error identities) with sorted keys and sorted job order.
Running the same submitted queue with any number of workers yields
byte-identical canonical state; timestamps, leases, backoff deadlines,
and worker identities are operational and excluded.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.config import LOCALIZATION_MODES
from repro.network.localization import DEFAULT_ENGINE, ENGINES
from repro.observability.export import write_atomic, write_trace
from repro.observability.metrics import MetricsRegistry

JOB_FORMAT_VERSION = 1


class StaleAttemptError(RuntimeError):
    """An outcome arrived from a worker whose claim is no longer current.

    Raised by :meth:`JobStore.mark_running`, :meth:`JobStore.complete`,
    :meth:`JobStore.fail`, and :meth:`JobStore.mark_degraded_retry` when
    the caller's fencing token -- the ``(generation, attempt)`` pair
    captured at claim time, plus its worker id -- no longer matches the
    record: the lease lapsed, the job was reaped, and (possibly) another
    worker now owns a newer attempt.  The stale worker's outcome must be
    discarded, never applied.
    """

#: Job states.  ``failed`` is transient (resolved to queued/dead in the
#: same store operation); the others are observable at rest.
STATE_QUEUED = "queued"
STATE_LEASED = "leased"
STATE_RUNNING = "running"
STATE_DONE = "done"
STATE_FAILED = "failed"
STATE_DEAD = "dead"

#: States a claim can start from / terminal states.
CLAIMABLE_STATES = (STATE_QUEUED,)
TERMINAL_STATES = (STATE_DONE, STATE_DEAD)

#: Seconds an expire lock stays its reaper's.  Past that (or holding no
#: expiry at all) the lock belongs to a reaper that died mid-reap, and the
#: next reaper takes the reap over; a live reap takes a few file writes.
REAP_LOCK_TTL = 30.0


@dataclass(frozen=True)
class JobSpec:
    """One boundary-detection pipeline run, fully specified.

    Every field except ``test_delay_seconds`` is *semantic*: it changes
    what the pipeline computes and therefore participates in
    :meth:`cache_key`.  ``test_delay_seconds`` is an operational test knob
    (a sleep inside the budget/lease window, used by the fault-injection
    tests to make "worker dies mid-job" and "wall budget exceeded"
    reproducible) and is excluded from the key -- a delayed run of a job
    must still hit the cache entry of its undelayed twin.

    ``kind`` selects the executor: ``"detect"`` is the full
    boundary-detection pipeline driven by the detect fields below;
    campaign cell kinds (``eval.*``, see
    :mod:`repro.evaluation.campaign`) carry their whole payload in
    ``cell`` and ignore the detect fields.  Both participate in the cache
    key, so a cell job's identity is exactly its ``(kind, cell)`` content.

    ``engine`` and ``localization`` are checked when the spec is built, so
    a spec no attempt could run is refused at submit time instead of
    burning its retries and ending ``dead``.
    """

    kind: str = "detect"
    cell: Optional[Dict[str, Any]] = None
    scenario: str = "sphere"
    n_surface: int = 120
    n_interior: int = 200
    target_degree: float = 14.0
    seed: int = 0
    error: float = 0.0
    epsilon: float = 1e-3
    theta: int = 20
    ttl: int = 3
    localization: str = "auto"
    engine: str = DEFAULT_ENGINE
    workers: int = 1
    surface: bool = True
    surface_k: int = 4
    test_delay_seconds: float = 0.0

    #: Fields excluded from the cache key (operational, not semantic).
    OPERATIONAL_FIELDS = ("test_delay_seconds",)

    def __post_init__(self):
        if self.engine not in ENGINES:
            raise ValueError(f"engine must be one of {ENGINES}, got {self.engine!r}")
        if self.localization not in LOCALIZATION_MODES:
            raise ValueError(
                f"localization must be one of {LOCALIZATION_MODES}, "
                f"got {self.localization!r}"
            )

    def semantic_dict(self) -> Dict[str, Any]:
        """The cache-key payload: every field that changes the result."""
        doc = dataclasses.asdict(self)
        for name in self.OPERATIONAL_FIELDS:
            doc.pop(name)
        return doc

    def cache_key(self) -> str:
        """SHA-256 over the sorted-keys JSON of the semantic fields."""
        payload = json.dumps(self.semantic_dict(), sort_keys=True)
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def as_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, doc: Dict[str, Any]) -> "JobSpec":
        return cls(**doc)


@dataclass(frozen=True)
class RetryBackoff:
    """Exponential retry backoff with deterministic seeded jitter.

    The delay before attempt ``n`` (1-based; the first *retry* is
    attempt 2) is ``min(cap, base * factor ** (n - 2))`` scaled by a
    jitter factor drawn from a generator seeded on the job's cache key and
    the attempt number -- every (job, attempt) pair always gets the same
    delay, so retry schedules are reproducible across runs and worker
    counts (RNG003-clean: the generator is explicitly seeded).
    """

    base: float = 0.5
    factor: float = 2.0
    cap: float = 30.0
    jitter: float = 0.1

    def __post_init__(self):
        if self.base < 0:
            raise ValueError("base must be non-negative")
        if self.factor < 1.0:
            raise ValueError("factor must be at least 1.0")
        if self.cap < self.base:
            raise ValueError("cap must be at least base")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError("jitter must be in [0, 1)")

    def delay(self, cache_key: str, attempt: int) -> float:
        """Seconds to wait before ``attempt`` (attempt >= 2) of a job."""
        raw = min(self.cap, self.base * self.factor ** max(0, attempt - 2))
        if self.jitter == 0.0:  # lint: allow[FLT009] -- 0.0 is the exact config sentinel for "no jitter", not a computed float
            return raw
        rng = np.random.default_rng([int(cache_key[:8], 16), attempt, 97])
        return raw * (1.0 + self.jitter * (2.0 * rng.random() - 1.0))


@dataclass
class JobRecord:
    """The durable state of one job (the ``job.json`` document)."""

    job_id: str
    spec: JobSpec
    state: str = STATE_QUEUED
    attempts: int = 0
    max_attempts: int = 3
    #: Claim generation, bumped by each manual ``requeue``.  Lock files
    #: embed it, so a revived job's fresh attempts never collide with the
    #: consumed one-shot locks of its previous life; together with
    #: ``attempts`` it is the fencing token stale workers are checked
    #: against.  Operational (excluded from ``canonical_dict``).
    generation: int = 0
    degraded: bool = False
    budget_breached: Optional[str] = None
    cache_hit: bool = False
    result: Optional[Dict[str, Any]] = None
    error: Optional[Dict[str, Any]] = None
    not_before: float = 0.0
    worker_id: Optional[str] = None
    created_at: float = 0.0
    updated_at: float = 0.0

    def as_dict(self) -> Dict[str, Any]:
        doc = dataclasses.asdict(self)
        doc["spec"] = self.spec.as_dict()
        doc["format_version"] = JOB_FORMAT_VERSION
        return doc

    @classmethod
    def from_dict(cls, doc: Dict[str, Any]) -> "JobRecord":
        doc = dict(doc)
        version = doc.pop("format_version", JOB_FORMAT_VERSION)
        if version != JOB_FORMAT_VERSION:
            raise ValueError(
                f"unsupported job format version {version!r} "
                f"(expected {JOB_FORMAT_VERSION})"
            )
        doc["spec"] = JobSpec.from_dict(doc["spec"])
        return cls(**doc)

    def canonical_dict(self) -> Dict[str, Any]:
        """Semantic projection for the byte-diff determinism contract.

        Excludes every operational field -- timestamps, lease deadlines,
        worker identity, and the error traceback (whose line numbers and
        frame text are stable, but whose embedded worker/tmp paths are
        not).
        """
        error = None
        if self.error is not None:
            error = {
                "type": self.error.get("type"),
                "message": self.error.get("message"),
            }
        return {
            "job_id": self.job_id,
            "spec": self.spec.semantic_dict(),
            "state": self.state,
            "attempts": self.attempts,
            "max_attempts": self.max_attempts,
            "degraded": self.degraded,
            "budget_breached": self.budget_breached,
            "cache_hit": self.cache_hit,
            "result": self.result,
            "error": error,
        }


class JobStore:
    """Directory-tree-backed durable job queue (see module docstring).

    Layout under ``root``::

        jobs/<job_id>/job.json        -- the record (atomic rewrite)
        jobs/<job_id>/log.jsonl       -- append-only transition log
        jobs/<job_id>/lease.json      -- current lease (worker, expiry,
                                         generation/attempt fencing token)
        jobs/<job_id>/claim-<gen>-<n>.lock  -- claim arbitration (created
                                         once, holding the claim expiry)
        jobs/<job_id>/expire-<gen>-<n>[.<t>].lock -- reap arbitration
                                         (holding the reaper's expiry;
                                         .<t> for the t-th takeover)
        results/<cache_key>.json      -- result cache
        traces/<job_id>.trace.jsonl   -- per-job JSONL trace
        workers/<worker_id>.metrics.json -- worker metric snapshots
    """

    def __init__(
        self,
        root,
        *,
        clock: Optional[Callable[[], float]] = None,
        metrics: Optional[MetricsRegistry] = None,
    ):
        self.root = Path(root)
        self.jobs_dir = self.root / "jobs"
        self.results_dir = self.root / "results"
        self.traces_dir = self.root / "traces"
        self.workers_dir = self.root / "workers"
        for directory in (
            self.jobs_dir,
            self.results_dir,
            self.traces_dir,
            self.workers_dir,
        ):
            directory.mkdir(parents=True, exist_ok=True)
        self.clock: Callable[[], float] = clock if clock is not None else time.time
        self.metrics = metrics if metrics is not None else MetricsRegistry()

    # -- paths -----------------------------------------------------------

    def job_dir(self, job_id: str) -> Path:
        return self.jobs_dir / job_id

    def trace_path(self, job_id: str) -> Path:
        return self.traces_dir / f"{job_id}.trace.jsonl"

    def _cache_path(self, cache_key: str) -> Path:
        return self.results_dir / f"{cache_key}.json"

    # -- record I/O ------------------------------------------------------

    def _write_record(self, record: JobRecord) -> None:
        record.updated_at = self.clock()
        path = self.job_dir(record.job_id) / "job.json"
        write_atomic(path, json.dumps(record.as_dict(), sort_keys=True) + "\n")

    def load(self, job_id: str) -> JobRecord:
        path = self.job_dir(job_id) / "job.json"
        return JobRecord.from_dict(json.loads(path.read_text()))

    def job_ids(self) -> List[str]:
        """All job ids, sorted (= submission order, the ids embed a seq)."""
        return [
            p.name for p in sorted(self.jobs_dir.iterdir()) if p.is_dir()
        ]

    def jobs(self) -> List[JobRecord]:
        """Every job's record, in id order.

        A job directory without a record -- :meth:`submit` killed between
        allocating the id and writing ``job.json`` -- is skipped, as
        :meth:`claim_next` and :meth:`reap_expired` skip it.
        """
        records = []
        for job_id in self.job_ids():
            try:
                records.append(self.load(job_id))
            except FileNotFoundError:
                continue
        return records

    def _log(self, job_id: str, event: str, **fields: Any) -> None:
        doc = {"ts": self.clock(), "event": event}
        doc.update(fields)
        line = json.dumps(doc, sort_keys=True) + "\n"
        log_path = self.job_dir(job_id) / "log.jsonl"
        # O_APPEND: single-line appends from concurrent workers interleave
        # whole lines, never bytes.
        fd = os.open(str(log_path), os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        try:
            os.write(fd, line.encode("utf-8"))
        finally:
            os.close(fd)

    def _try_lock(
        self, job_id: str, name: str, content: Optional[Dict[str, Any]] = None
    ) -> bool:
        """Atomically create a one-shot lock file holding ``content`` (a
        JSON object); False if the lock exists.

        The content is written before the name appears (a tmp file, then
        ``os.link``, which fails if the name exists), so a holder killed
        right after winning the lock still leaves its expiry behind.
        """
        job_dir = self.job_dir(job_id)
        fd, tmp_name = tempfile.mkstemp(prefix="lock.", suffix=".tmp", dir=str(job_dir))
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(content or {}, fh)
            os.link(tmp_name, job_dir / name)
        except FileExistsError:
            return False
        finally:
            os.unlink(tmp_name)
        return True

    def _lock_of(self, job_id: str, name: str) -> Optional[Dict[str, Any]]:
        """The content of a lock, or ``None`` when it is absent or holds no
        expiry."""
        path = self.job_dir(job_id) / name
        try:
            lock = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return None
        if not isinstance(lock, dict) or "expires_at" not in lock:
            return None
        return lock

    def _try_claim_lock(
        self, record: JobRecord, worker_id: str, expires_at: float
    ) -> bool:
        """Create the claim lock for ``record``'s next attempt, holding the
        claimer and the claim's expiry; False if another worker holds it.
        A worker killed right after winning the claim leaves that expiry
        behind for :meth:`reap_expired`."""
        return self._try_lock(
            record.job_id,
            self._claim_lock_name(record),
            {"worker": worker_id, "expires_at": expires_at},
        )

    def _claim_of(self, record: JobRecord) -> Optional[Dict[str, Any]]:
        """The claim lock for ``record``'s next attempt, or ``None`` when
        it is absent or holds no expiry."""
        return self._lock_of(record.job_id, self._claim_lock_name(record))

    def _try_reap_lock(
        self, job_id: str, generation: int, attempt: int, reaper: str, now: float
    ) -> bool:
        """Win the reap of one lapsed attempt; False if a live reaper has it.

        The expire lock holds its reaper and an expiry
        :data:`REAP_LOCK_TTL` ahead.  A reaper killed before it requeued
        the job leaves its lock to lapse; the next reaper then takes the
        reap over by winning the next lock of the chain
        (``expire-<generation>-<attempt>.<t>.lock``).  A lock holding no
        expiry counts as lapsed.
        """
        content = {"reaper": reaper, "expires_at": now + REAP_LOCK_TTL}
        takeover = 0
        while True:
            name = self._expire_lock_name(generation, attempt, takeover)
            if self._try_lock(job_id, name, content):
                return True
            held = self._lock_of(job_id, name)
            if held is not None and held["expires_at"] > now:
                return False
            takeover += 1

    @staticmethod
    def _claim_lock_name(record: JobRecord) -> str:
        """One-shot claim lock for the *next* attempt of ``record``.

        The generation prefix keeps a manually requeued job's fresh
        attempts from colliding with the consumed locks of its previous
        life (attempt counters reset on requeue; generations never do).
        """
        return f"claim-{record.generation}-{record.attempts}.lock"

    @staticmethod
    def _expire_lock_name(generation: int, attempt: int, takeover: int = 0) -> str:
        """One-shot reap lock for one attempt of a job (and for the
        ``takeover``-th reaper to take a lapsed reap of it over)."""
        suffix = f".{takeover}" if takeover else ""
        return f"expire-{generation}-{attempt}{suffix}.lock"

    def _lapsed_attempt(
        self, record: JobRecord, now: float
    ) -> Optional[Tuple[int, Optional[str]]]:
        """``(attempt, worker)`` of ``record``'s lapsed attempt, if any.

        A leased or running job lapses when its lease expires.  A queued
        job lapses when the claim lock of its next attempt has expired:
        the claimer died after winning the lock and before recording the
        claim.
        """
        if record.state in (STATE_LEASED, STATE_RUNNING):
            lease = self.lease_of(record.job_id)
            if lease is None or lease["expires_at"] > now:
                return None
            return record.attempts, record.worker_id
        if record.state in CLAIMABLE_STATES:
            claim = self._claim_of(record)
            if claim is None or claim["expires_at"] > now:
                return None
            return record.attempts + 1, claim.get("worker")
        return None

    def _check_current(
        self,
        record: JobRecord,
        worker_id: str,
        attempt: Optional[int],
        generation: Optional[int],
    ) -> None:
        """Fencing check: raise unless ``worker_id`` still owns the attempt.

        ``attempt``/``generation`` are the token captured at claim time;
        ``None`` skips that comparison (store-level callers that hold no
        claim, e.g. unit tests driving transitions directly).  Refusals
        are logged as ``stale_discarded`` transition-log events.
        """
        reason = None
        if record.state not in (STATE_LEASED, STATE_RUNNING):
            reason = f"job is {record.state!r}, not leased/running"
        elif record.worker_id != worker_id:
            reason = (
                f"attempt {record.attempts} is owned by {record.worker_id!r}"
            )
        elif attempt is not None and record.attempts != attempt:
            reason = (
                f"token is for attempt {attempt}, current is {record.attempts}"
            )
        elif generation is not None and record.generation != generation:
            reason = (
                f"token is for generation {generation}, current is "
                f"{record.generation}"
            )
        if reason is not None:
            self._log(
                record.job_id,
                "stale_discarded",
                worker=worker_id,
                attempt=attempt,
                generation=generation,
                reason=reason,
            )
            raise StaleAttemptError(
                f"{record.job_id}: outcome from {worker_id!r} discarded -- "
                + reason
            )

    # -- submit ----------------------------------------------------------

    def submit(self, spec: JobSpec, *, max_attempts: int = 3) -> JobRecord:
        """Enqueue a job; a result-cache hit makes it be born ``done``.

        The cache is consulted here and *only* here: submit order is fixed
        by the caller, so whether a job is a cache hit is a deterministic
        function of the submitted sequence, independent of worker timing.
        """
        if max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        cache_key = spec.cache_key()
        job_id = self._allocate_job_id(cache_key)
        now = self.clock()
        record = JobRecord(
            job_id=job_id,
            spec=spec,
            max_attempts=max_attempts,
            created_at=now,
        )
        cache_path = self._cache_path(cache_key)
        if cache_path.exists():
            cached = json.loads(cache_path.read_text())
            record.state = STATE_DONE
            record.cache_hit = True
            record.result = cached["result"]
            self.metrics.counter("service.cache.hits").inc()
            # A cache-hit job never reaches a worker; its trace is the
            # valid empty trace (header only, zero pipeline spans),
            # emitted by the exporter so the header tracks the trace
            # schema version.
            write_trace([], self.trace_path(job_id))
        self._write_record(record)
        self._log(
            job_id,
            "submitted",
            state=record.state,
            cache_key=cache_key,
            cache_hit=record.cache_hit,
        )
        return record

    def _allocate_job_id(self, cache_key: str) -> str:
        """Sequential job id ``j<seq>-<key prefix>``; dir creation is the
        atomic allocation (``mkdir`` fails on collision, we move to the
        next seq)."""
        seq = len(self.job_ids())
        while True:
            job_id = f"j{seq:05d}-{cache_key[:10]}"
            try:
                self.job_dir(job_id).mkdir(parents=True, exist_ok=False)
            except FileExistsError:
                seq += 1
                continue
            return job_id

    # -- claim / lease ---------------------------------------------------

    def claim_next(
        self, worker_id: str, lease_ttl: float, *, now: Optional[float] = None
    ) -> Optional[JobRecord]:
        """Claim the first queued, due job under an expiring lease.

        Jobs are scanned in id order (= submission order).  The
        ``claim-<generation>-<attempt>.lock`` file is the arbitration
        point: of any number of workers that read the same queued record,
        exactly one wins the lock's create and transitions it to
        ``leased``.  The lease is written before the record, so a leased
        record always has its lease; until then the lock's expiry stands
        in for it.
        """
        now = self.clock() if now is None else now
        expires_at = now + lease_ttl
        for job_id in self.job_ids():
            try:
                record = self.load(job_id)
            except (OSError, ValueError, KeyError):
                continue  # partially-created or foreign dir; skip
            if record.state not in CLAIMABLE_STATES:
                continue
            if record.not_before > now:
                continue
            if not self._try_claim_lock(record, worker_id, expires_at):
                continue  # another worker won this attempt
            record = self.load(job_id)  # re-read under the lock
            if record.state not in CLAIMABLE_STATES:
                continue
            record.state = STATE_LEASED
            record.attempts += 1
            record.worker_id = worker_id
            self._write_lease(record, worker_id, expires_at)
            self._write_record(record)
            self._log(
                job_id,
                "leased",
                worker=worker_id,
                attempt=record.attempts,
                expires_at=expires_at,
            )
            self.metrics.counter("service.jobs.claimed").inc()
            return record
        return None

    def _write_lease(
        self, record: JobRecord, worker_id: str, expires_at: float
    ) -> None:
        write_atomic(
            self.job_dir(record.job_id) / "lease.json",
            json.dumps(
                {
                    "worker": worker_id,
                    "expires_at": expires_at,
                    "generation": record.generation,
                    "attempt": record.attempts,
                },
                sort_keys=True,
            )
            + "\n",
        )

    def mark_running(
        self,
        job_id: str,
        worker_id: str,
        *,
        attempt: Optional[int] = None,
        generation: Optional[int] = None,
    ) -> JobRecord:
        """Transition a claimed job to ``running``.

        Fenced: a worker whose claim lapsed (reaped, possibly re-leased)
        gets :class:`StaleAttemptError` instead of resurrecting the job.
        """
        record = self.load(job_id)
        self._check_current(record, worker_id, attempt, generation)
        record.state = STATE_RUNNING
        record.worker_id = worker_id
        self._write_record(record)
        self._log(job_id, "running", worker=worker_id, attempt=record.attempts)
        return record

    def heartbeat(
        self,
        job_id: str,
        worker_id: str,
        lease_ttl: float,
        *,
        attempt: Optional[int] = None,
        generation: Optional[int] = None,
        now: Optional[float] = None,
    ) -> bool:
        """Renew the lease; a live worker never lets its lease lapse.

        Fenced: returns ``False`` (without renewing) when the caller no
        longer owns the current attempt -- a stale worker must not win
        back a lease it already lost to the reaper.
        """
        now = self.clock() if now is None else now
        record = self.load(job_id)
        try:
            self._check_current(record, worker_id, attempt, generation)
        except StaleAttemptError:
            self.metrics.counter("service.stale.heartbeats").inc()
            return False
        self._write_lease(record, worker_id, now + lease_ttl)
        return True

    def lease_of(self, job_id: str) -> Optional[Dict[str, Any]]:
        path = self.job_dir(job_id) / "lease.json"
        if not path.exists():
            return None
        return json.loads(path.read_text())

    # -- reap ------------------------------------------------------------

    def reap_expired(
        self,
        *,
        backoff: Optional[RetryBackoff] = None,
        now: Optional[float] = None,
        reaper: str = "reaper",
    ) -> List[str]:
        """Requeue (or dead-letter) every job whose lease has lapsed.

        Any worker may reap; the ``expire-<generation>-<attempt>.lock``
        file guarantees each lapsed attempt is processed exactly once,
        and its expiry lets a later reaper finish the reap of one killed
        mid-way (see :meth:`_try_reap_lock`).  A queued job whose claim
        lock has expired is a claim whose worker died before recording
        it: that attempt lapses the same way.
        """
        backoff = backoff if backoff is not None else RetryBackoff()
        now = self.clock() if now is None else now
        reaped: List[str] = []
        for job_id in self.job_ids():
            try:
                record = self.load(job_id)
            except (OSError, ValueError, KeyError):
                continue
            lapsed = self._lapsed_attempt(record, now)
            if lapsed is None:
                continue
            attempt, worker_id = lapsed
            generation = record.generation
            if not self._try_reap_lock(job_id, generation, attempt, reaper, now):
                continue  # another reaper handles this lapse
            record = self.load(job_id)
            if record.generation != generation or self._lapsed_attempt(record, now) != lapsed:
                continue  # re-read under the lock: this lapse is gone
            if record.state in CLAIMABLE_STATES:
                record.attempts = attempt
                record.worker_id = worker_id
            self.metrics.counter("service.lease.expired").inc()
            self._log(
                job_id,
                "lease_expired",
                worker=record.worker_id,
                attempt=record.attempts,
            )
            self._resolve_failure(
                record,
                error={
                    "type": "LeaseExpired",
                    "message": (
                        f"lease lapsed during attempt {record.attempts} "
                        f"(worker {record.worker_id})"
                    ),
                },
                backoff=backoff,
                now=now,
            )
            reaped.append(job_id)
        return reaped

    # -- completion / failure --------------------------------------------

    def complete(
        self,
        job_id: str,
        worker_id: str,
        result: Dict[str, Any],
        *,
        degraded: bool = False,
        budget_breached: Optional[str] = None,
        attempt: Optional[int] = None,
        generation: Optional[int] = None,
    ) -> JobRecord:
        """Finish a job.  Non-degraded results populate the cache.

        Fenced: a worker whose lease lapsed (job reaped, possibly already
        re-leased to a live worker) gets :class:`StaleAttemptError` and
        its result is discarded -- the live attempt owns the outcome.
        """
        record = self.load(job_id)
        self._check_current(record, worker_id, attempt, generation)
        record.state = STATE_DONE
        record.result = result
        record.degraded = degraded
        if budget_breached is not None:
            record.budget_breached = budget_breached
        record.error = None
        record.worker_id = worker_id
        self._write_record(record)
        self._log(
            job_id, "done", worker=worker_id, degraded=degraded,
            attempt=record.attempts,
        )
        if not degraded and not record.cache_hit:
            write_atomic(
                self._cache_path(record.spec.cache_key()),
                json.dumps(
                    {"result": result, "job_id": job_id}, sort_keys=True
                )
                + "\n",
            )
        self.metrics.counter("service.jobs.completed").inc()
        return record

    def fail(
        self,
        job_id: str,
        worker_id: str,
        error: Dict[str, Any],
        *,
        backoff: Optional[RetryBackoff] = None,
        now: Optional[float] = None,
        attempt: Optional[int] = None,
        generation: Optional[int] = None,
    ) -> JobRecord:
        """Record a failed attempt: requeue with backoff, or dead-letter.

        ``error`` should carry ``type``, ``message``, and (for crashes)
        ``traceback``; it is preserved verbatim on the record so
        dead-letters are debuggable from the store alone.

        Fenced like :meth:`complete`: a stale worker's failure report is
        discarded with :class:`StaleAttemptError` rather than burning a
        retry the live attempt still owns.
        """
        backoff = backoff if backoff is not None else RetryBackoff()
        now = self.clock() if now is None else now
        record = self.load(job_id)
        self._check_current(record, worker_id, attempt, generation)
        record.worker_id = worker_id
        self._log(
            job_id,
            "failed",
            worker=worker_id,
            attempt=record.attempts,
            error_type=error.get("type"),
        )
        return self._resolve_failure(record, error=error, backoff=backoff, now=now)

    def _resolve_failure(
        self,
        record: JobRecord,
        *,
        error: Dict[str, Any],
        backoff: RetryBackoff,
        now: float,
    ) -> JobRecord:
        """The transient ``failed`` state: immediately requeue or bury."""
        record.error = error
        if record.attempts >= record.max_attempts:
            record.state = STATE_DEAD
            self._write_record(record)
            self._log(
                record.job_id,
                "dead",
                attempt=record.attempts,
                error_type=error.get("type"),
            )
            self.metrics.counter("service.jobs.dead").inc()
        else:
            delay = backoff.delay(record.spec.cache_key(), record.attempts + 1)
            record.state = STATE_QUEUED
            record.not_before = now + delay
            self._write_record(record)
            self._log(
                record.job_id,
                "requeued",
                attempt=record.attempts,
                delay=delay,
            )
            self.metrics.counter("service.jobs.retried").inc()
        return record

    def mark_degraded_retry(
        self,
        job_id: str,
        worker_id: str,
        kind: str,
        *,
        attempt: Optional[int] = None,
        generation: Optional[int] = None,
    ) -> JobRecord:
        """Budget breach: requeue immediately for a degraded attempt.

        The breach is not a failure -- the job is retried at once (no
        backoff: the breach is deterministic, waiting would not help) with
        ``degraded`` set so the next attempt runs the reduced pipeline.
        Fenced like :meth:`complete`.
        """
        record = self.load(job_id)
        self._check_current(record, worker_id, attempt, generation)
        record.degraded = True
        record.budget_breached = kind
        record.state = STATE_QUEUED
        record.not_before = 0.0
        record.worker_id = worker_id
        self._write_record(record)
        self._log(
            job_id,
            "budget_breached",
            worker=worker_id,
            kind=kind,
            attempt=record.attempts,
        )
        self.metrics.counter("service.jobs.degraded").inc()
        return record

    def requeue(self, job_id: str) -> JobRecord:
        """Operator override: put a dead (or stuck) job back in the queue.

        A requeue is a fresh grant of the full retry budget *and* of the
        full pipeline: attempts, error, and degradation state all reset.
        The claim generation is bumped so the revived job's attempt
        counter (restarting at 0) never collides with the consumed
        one-shot claim/expire locks of its previous life -- and so any
        worker still holding a pre-requeue fencing token is stale.
        """
        record = self.load(job_id)
        record.state = STATE_QUEUED
        record.generation += 1
        record.attempts = 0
        record.not_before = 0.0
        record.error = None
        record.degraded = False
        record.budget_breached = None
        self._write_record(record)
        self._log(job_id, "requeued_manually", generation=record.generation)
        return record

    # -- projections -----------------------------------------------------

    def counts(self) -> Dict[str, int]:
        """Jobs per state (for ``repro-serve status``)."""
        tally: Dict[str, int] = {}
        for record in self.jobs():
            tally[record.state] = tally.get(record.state, 0) + 1
        return dict(sorted(tally.items()))

    def canonical_state(self) -> str:
        """Deterministic byte-diff projection of the store (see module
        docstring): sorted job order, sorted keys, semantic fields only."""
        docs = [record.canonical_dict() for record in self.jobs()]
        return json.dumps(docs, sort_keys=True, indent=2) + "\n"
