"""``repro-serve`` -- CLI for the durable boundary-detection service.

Four subcommands over one store directory (``--root``):

* ``submit``  -- enqueue a pipeline job (deployment + detector knobs);
  a result-cache hit returns instantly with the job born ``done``.
* ``status``  -- per-state counts and a per-job table; ``--canonical``
  prints the deterministic byte-diff projection the determinism tests
  compare across worker counts.
* ``work``    -- run a polling worker (the long-lived process; start as
  many as you like against the same root).
* ``requeue`` -- operator override returning a dead job to the queue
  with a fresh retry budget.

The store is just files: every subcommand may be run from different
machines sharing the root directory, and killing a worker at any point
never loses a job (see ``docs/SERVICE.md``).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.core.config import LOCALIZATION_MODES
from repro.network.localization import DEFAULT_ENGINE, ENGINES
from repro.service.budgets import JobBudget
from repro.service.jobstore import JobSpec, JobStore, RetryBackoff
from repro.service.worker import Worker


def _add_submit_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scenario", default="sphere")
    parser.add_argument("--surface-nodes", type=int, default=120)
    parser.add_argument("--interior-nodes", type=int, default=200)
    parser.add_argument("--degree", type=float, default=14.0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--error", type=float, default=0.0,
                        help="uniform absolute ranging error (0 = exact)")
    parser.add_argument("--epsilon", type=float, default=1e-3)
    parser.add_argument("--theta", type=int, default=20)
    parser.add_argument("--ttl", type=int, default=3)
    parser.add_argument("--localization", default="auto",
                        choices=LOCALIZATION_MODES)
    parser.add_argument("--engine", default=DEFAULT_ENGINE, choices=ENGINES)
    parser.add_argument("--workers", type=int, default=1,
                        help="MDS frame-construction threads inside the job")
    parser.add_argument("--no-surface", action="store_true",
                        help="skip surface construction")
    parser.add_argument("--surface-k", type=int, default=4)
    parser.add_argument("--max-attempts", type=int, default=3)
    parser.add_argument("--test-delay", type=float, default=0.0,
                        help="operational sleep inside the job "
                             "(fault-injection tests; excluded from the "
                             "cache key)")


def _spec_from_args(args: argparse.Namespace) -> JobSpec:
    return JobSpec(
        scenario=args.scenario,
        n_surface=args.surface_nodes,
        n_interior=args.interior_nodes,
        target_degree=args.degree,
        seed=args.seed,
        error=args.error,
        epsilon=args.epsilon,
        theta=args.theta,
        ttl=args.ttl,
        localization=args.localization,
        engine=args.engine,
        workers=args.workers,
        surface=not args.no_surface,
        surface_k=args.surface_k,
        test_delay_seconds=args.test_delay,
    )


def _backoff_from_args(args: argparse.Namespace) -> RetryBackoff:
    return RetryBackoff(
        base=args.backoff_base,
        factor=args.backoff_factor,
        cap=args.backoff_cap,
        jitter=args.backoff_jitter,
    )


def cmd_submit(args: argparse.Namespace) -> int:
    store = JobStore(args.root)
    record = store.submit(_spec_from_args(args), max_attempts=args.max_attempts)
    suffix = " (cache hit)" if record.cache_hit else ""
    print(f"{record.job_id} {record.state}{suffix}")
    return 0


def cmd_status(args: argparse.Namespace) -> int:
    store = JobStore(args.root)
    if args.canonical:
        sys.stdout.write(store.canonical_state())
        return 0
    if args.job:
        record = store.load(args.job)
        print(json.dumps(record.as_dict(), sort_keys=True, indent=2))
        return 0
    counts = store.counts()
    print(" ".join(f"{state}={n}" for state, n in counts.items()) or "empty")
    for record in store.jobs():
        flags = []
        if record.cache_hit:
            flags.append("cache-hit")
        if record.degraded:
            flags.append("degraded")
        if record.budget_breached:
            flags.append(f"breach:{record.budget_breached}")
        flag_text = (" [" + ",".join(flags) + "]") if flags else ""
        print(
            f"  {record.job_id}  {record.state:7s} "
            f"attempts={record.attempts}/{record.max_attempts}{flag_text}"
        )
    return 0


def cmd_work(args: argparse.Namespace) -> int:
    store = JobStore(args.root)
    budget = JobBudget(
        wall_seconds=args.wall_budget, peak_rss_mb=args.rss_budget
    )
    worker = Worker(
        store,
        args.worker_id,
        lease_ttl=args.lease_ttl,
        poll_interval=args.poll_interval,
        backoff=_backoff_from_args(args),
        budget=budget,
        trace_clock=args.trace_clock,
    )
    processed = worker.run(
        max_jobs=args.max_jobs,
        exit_when_idle=args.exit_when_idle,
        max_seconds=args.max_seconds,
    )
    print(f"{args.worker_id}: processed {processed} job(s)")
    return 0


def cmd_requeue(args: argparse.Namespace) -> int:
    store = JobStore(args.root)
    record = store.requeue(args.job)
    print(f"{record.job_id} {record.state}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="Durable fault-tolerant job service for the "
                    "boundary-detection pipeline.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_submit = sub.add_parser("submit", help="enqueue a pipeline job")
    p_submit.add_argument("--root", required=True, help="store directory")
    _add_submit_args(p_submit)
    p_submit.set_defaults(func=cmd_submit)

    p_status = sub.add_parser("status", help="inspect the store")
    p_status.add_argument("--root", required=True)
    p_status.add_argument("--job", help="print one job's full record")
    p_status.add_argument("--canonical", action="store_true",
                          help="print the deterministic byte-diff "
                               "projection of the store")
    p_status.set_defaults(func=cmd_status)

    p_work = sub.add_parser("work", help="run a polling worker")
    p_work.add_argument("--root", required=True)
    p_work.add_argument("--worker-id", required=True)
    p_work.add_argument("--lease-ttl", type=float, default=30.0)
    p_work.add_argument("--poll-interval", type=float, default=0.2)
    p_work.add_argument("--max-jobs", type=int, default=None)
    p_work.add_argument("--max-seconds", type=float, default=None)
    p_work.add_argument("--exit-when-idle", action="store_true")
    p_work.add_argument("--wall-budget", type=float, default=None,
                        help="per-attempt wall-time budget (seconds)")
    p_work.add_argument("--rss-budget", type=float, default=None,
                        help="per-attempt peak-RSS budget (MB)")
    p_work.add_argument("--backoff-base", type=float, default=0.5)
    p_work.add_argument("--backoff-factor", type=float, default=2.0)
    p_work.add_argument("--backoff-cap", type=float, default=30.0)
    p_work.add_argument("--backoff-jitter", type=float, default=0.1)
    p_work.add_argument("--trace-clock", default="tick",
                        choices=["tick", "wall"],
                        help="tick = deterministic byte-identical traces")
    p_work.set_defaults(func=cmd_work)

    p_requeue = sub.add_parser("requeue", help="return a dead job to the queue")
    p_requeue.add_argument("--root", required=True)
    p_requeue.add_argument("--job", required=True)
    p_requeue.set_defaults(func=cmd_requeue)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
