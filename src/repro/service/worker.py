"""Lease-based polling worker for the boundary-detection service.

A :class:`Worker` loops: reap lapsed leases, claim the next due job,
run the full detection pipeline on it, record the outcome.  Liveness is
communicated through the lease alone -- a daemon heartbeat thread renews
it at a third of its TTL while the job runs, so a worker that is merely
*slow* keeps its claim, while one that is SIGKILLed or wedged stops
renewing and any other worker's next poll requeues the job (with
exponential backoff, up to the attempt cap, then dead-lettered with the
traceback).

Every attempt gets a fresh per-job :class:`~repro.observability.Tracer`
whose spans are exported as a JSONL trace artifact next to the store
(``traces/<job_id>.trace.jsonl``, schema-checkable with
``repro-boundary trace --validate``).  The default trace clock is the
deterministic :class:`~repro.observability.TickClock`, making per-job
traces byte-identical across runs and worker counts; pass
``trace_clock="wall"`` for real timings.

Budget breaches follow the degradation ladder of
:mod:`repro.service.budgets`: first breach requeues the job for an
immediate *degraded* attempt (the job's own localization engine, one
pipeline worker, surface skipped, enforcement off).
"""

from __future__ import annotations

import json
import threading
import time
import traceback
from typing import Any, Dict, Optional

import numpy as np

from repro.core.config import (
    DetectorConfig,
    IFFConfig,
    LocalizationConfig,
    UBFConfig,
)
from repro.core.pipeline import BoundaryDetector
from repro.evaluation.campaign import execute_cell
from repro.evaluation.metrics import evaluate_detection
from repro.network.generator import DeploymentConfig, generate_network
from repro.network.measurement import NoError, UniformAbsoluteError
from repro.observability.export import write_atomic, write_trace
from repro.observability.tracer import TickClock, Tracer
from repro.service.budgets import BudgetExceeded, JobBudget, enforce
from repro.service.jobstore import (
    JobRecord,
    JobSpec,
    JobStore,
    RetryBackoff,
    StaleAttemptError,
)
from repro.shapes.library import scenario_by_name
from repro.surface.pipeline import SurfaceBuilder, SurfaceConfig


def detector_config_for(spec: JobSpec, *, degraded: bool) -> DetectorConfig:
    """The pipeline configuration for one attempt of ``spec``.

    A degraded attempt runs on a single pipeline worker; the surface stage
    is skipped by :func:`execute_job` itself.  It keeps the job's
    localization engine: the ``pernode`` oracle is slower than ``sparse``
    and peaks higher, so it would relieve neither a wall-time breach nor an
    RSS breach (the per-process high-water mark never goes down anyway).
    """
    if spec.error > 0:
        error_model = UniformAbsoluteError(spec.error)
    else:
        error_model = NoError()
    return DetectorConfig(
        ubf=UBFConfig(epsilon=spec.epsilon),
        iff=IFFConfig(theta=spec.theta, ttl=spec.ttl),
        localization_config=LocalizationConfig(engine=spec.engine),
        error_model=error_model,
        localization=spec.localization,
        workers=1 if degraded else spec.workers,
    )


def execute_job(
    spec: JobSpec, *, degraded: bool = False, tracer: Optional[Tracer] = None
) -> Dict[str, Any]:
    """Run the full pipeline for ``spec``; returns the job's result doc.

    The optional ``test_delay_seconds`` sleep runs *inside* the job span
    (and therefore inside the caller's budget window) so the service
    tests can deterministically provoke lease lapses and wall breaches.

    Non-``detect`` kinds are campaign evaluation cells: the whole payload
    lives in ``spec.cell`` and dispatches to
    :func:`repro.evaluation.campaign.execute_cell` (an unknown kind
    raises, which the worker surfaces as a failed attempt).
    """
    tracer = tracer if tracer is not None else Tracer(clock=TickClock())
    if spec.kind != "detect":
        with tracer.span("job", kind=spec.kind, degraded=degraded):
            if spec.test_delay_seconds > 0:
                time.sleep(spec.test_delay_seconds)
            return execute_cell(spec.kind, spec.cell, tracer=tracer)
    with tracer.span("job", scenario=spec.scenario, degraded=degraded):
        if spec.test_delay_seconds > 0:
            time.sleep(spec.test_delay_seconds)
        network = generate_network(
            scenario_by_name(spec.scenario),
            DeploymentConfig(
                n_surface=spec.n_surface,
                n_interior=spec.n_interior,
                target_degree=spec.target_degree,
                seed=spec.seed,
            ),
            scenario=spec.scenario,
        )
        detector = BoundaryDetector(detector_config_for(spec, degraded=degraded))
        detection = detector.detect(
            network, rng=np.random.default_rng(spec.seed), tracer=tracer
        )
        stats = evaluate_detection(network, detection)
        doc: Dict[str, Any] = {
            "degraded": degraded,
            "n_nodes": network.n_nodes,
            "localization_used": detection.localization_used,
            "n_candidates": len(detection.candidates),
            "n_boundary": len(detection.boundary),
            "n_groups": len(detection.groups),
            "stats": {
                "n_truth": stats.n_truth,
                "n_found": stats.n_found,
                "n_correct": stats.n_correct,
                "n_mistaken": stats.n_mistaken,
                "n_missing": stats.n_missing,
            },
        }
        if spec.surface and not degraded:
            with tracer.span("surface", k=spec.surface_k):
                meshes = SurfaceBuilder(SurfaceConfig(k=spec.surface_k)).build(
                    network.graph, detection.groups
                )
            doc["surface"] = {
                "n_meshes": len(meshes),
                "n_triangles": sum(len(m.triangles()) for m in meshes),
            }
        else:
            doc["surface"] = None
    return doc


class _Heartbeat:
    """Daemon thread renewing one job's lease until stopped.

    Carries the fencing token captured at claim time; once the store
    reports the lease lost (a fenced :meth:`JobStore.heartbeat` returning
    ``False``), renewal stops for good -- a stale worker must not win
    back a lease the reaper already handed to someone else.
    """

    def __init__(self, store: JobStore, record: JobRecord, worker_id: str,
                 lease_ttl: float):
        self._store = store
        self._job_id = record.job_id
        self._attempt = record.attempts
        self._generation = record.generation
        self._worker_id = worker_id
        self._lease_ttl = lease_ttl
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        interval = max(0.05, self._lease_ttl / 3.0)
        while not self._stop.wait(interval):
            try:
                renewed = self._store.heartbeat(
                    self._job_id,
                    self._worker_id,
                    self._lease_ttl,
                    attempt=self._attempt,
                    generation=self._generation,
                )
            except OSError:
                # A torn-down store (test teardown) must not crash the
                # daemon; the lease simply stops being renewed.
                return
            if not renewed:
                return  # lease lost; the live attempt owns it now

    def __enter__(self) -> "_Heartbeat":
        self._thread.start()
        return self

    def __exit__(self, *exc: Any) -> None:
        self._stop.set()
        self._thread.join(timeout=5.0)


class Worker:
    """One polling worker process (see module docstring)."""

    def __init__(
        self,
        store: JobStore,
        worker_id: str,
        *,
        lease_ttl: float = 30.0,
        poll_interval: float = 0.2,
        backoff: Optional[RetryBackoff] = None,
        budget: Optional[JobBudget] = None,
        trace_clock: str = "tick",
    ):
        if lease_ttl <= 0:
            raise ValueError("lease_ttl must be positive")
        if poll_interval <= 0:
            raise ValueError("poll_interval must be positive")
        if trace_clock not in ("tick", "wall"):
            raise ValueError("trace_clock must be 'tick' or 'wall'")
        self.store = store
        self.worker_id = worker_id
        self.lease_ttl = lease_ttl
        self.poll_interval = poll_interval
        self.backoff = backoff if backoff is not None else RetryBackoff()
        self.budget = budget if budget is not None else JobBudget()
        self.trace_clock = trace_clock

    def _new_tracer(self) -> Tracer:
        if self.trace_clock == "tick":
            return Tracer(clock=TickClock(), shard_clock=TickClock)
        return Tracer()

    def run(
        self,
        *,
        max_jobs: Optional[int] = None,
        exit_when_idle: bool = False,
        max_seconds: Optional[float] = None,
    ) -> int:
        """Poll until a stop condition holds; returns jobs processed."""
        processed = 0
        deadline = None if max_seconds is None else time.monotonic() + max_seconds
        while True:
            if deadline is not None and time.monotonic() >= deadline:
                break
            expired = self.store.reap_expired(
                backoff=self.backoff, reaper=self.worker_id
            )
            if expired:
                self.store.metrics.counter("service.reaps").inc(len(expired))
            record = self.store.claim_next(self.worker_id, self.lease_ttl)
            if record is None:
                if exit_when_idle:
                    break
                time.sleep(self.poll_interval)
                continue
            self.run_one(record)
            processed += 1
            if max_jobs is not None and processed >= max_jobs:
                break
        self.write_metrics()
        return processed

    def run_one(self, record: JobRecord) -> JobRecord:
        """Execute one claimed job attempt end to end.

        The claimed record's ``(generation, attempts)`` pair is this
        attempt's fencing token: every outcome call passes it back, and a
        :class:`StaleAttemptError` (this worker stalled past its lease,
        the job was reaped) discards the outcome -- the live attempt owns
        the job's state, including its trace artifact.
        """
        job_id = record.job_id
        degraded = record.degraded
        attempt = record.attempts
        generation = record.generation
        tracer = self._new_tracer()
        budget = JobBudget() if degraded else self.budget
        try:
            self.store.mark_running(
                job_id, self.worker_id, attempt=attempt, generation=generation
            )
            with _Heartbeat(self.store, record, self.worker_id, self.lease_ttl):
                with enforce(budget):
                    result = execute_job(
                        record.spec, degraded=degraded, tracer=tracer
                    )
        except StaleAttemptError:
            return self._discard_stale(job_id, attempt)
        except BudgetExceeded as exc:
            try:
                self.store.mark_degraded_retry(
                    job_id, self.worker_id, exc.kind,
                    attempt=attempt, generation=generation,
                )
            except StaleAttemptError:
                return self._discard_stale(job_id, attempt)
            write_trace(tracer.roots, self.store.trace_path(job_id))
            return self.store.load(job_id)
        except Exception as exc:  # lint: allow[EXC005] -- the dead-letter contract requires capturing any crash's type and traceback
            try:
                self.store.fail(
                    job_id,
                    self.worker_id,
                    {
                        "type": type(exc).__name__,
                        "message": str(exc),
                        "traceback": traceback.format_exc(),
                    },
                    backoff=self.backoff,
                    attempt=attempt,
                    generation=generation,
                )
            except StaleAttemptError:
                return self._discard_stale(job_id, attempt)
            write_trace(tracer.roots, self.store.trace_path(job_id))
            return self.store.load(job_id)
        try:
            self.store.complete(
                job_id,
                self.worker_id,
                result,
                degraded=degraded,
                budget_breached=record.budget_breached,
                attempt=attempt,
                generation=generation,
            )
        except StaleAttemptError:
            return self._discard_stale(job_id, attempt)
        write_trace(tracer.roots, self.store.trace_path(job_id))
        return self.store.load(job_id)

    def _discard_stale(self, job_id: str, attempt: int) -> JobRecord:
        """This worker's attempt lapsed mid-flight: drop the outcome (and
        the trace -- the live attempt owns the artifact) and move on.
        The store already logged ``stale_discarded`` when it refused."""
        self.store.metrics.counter("service.stale.outcomes").inc()
        return self.store.load(job_id)

    def write_metrics(self) -> None:
        """Snapshot the store's metric registry for this worker."""
        path = self.store.workers_dir / f"{self.worker_id}.metrics.json"
        write_atomic(
            path,
            json.dumps(self.store.metrics.as_dict(), sort_keys=True, indent=2)
            + "\n",
        )
