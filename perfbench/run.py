"""Repository benchmark: boundary detection timed as users run it.

    python3 perfbench/run.py --workload NAME [--seed 11] [--seconds 10] [--trace 0|1]

Run from the repository root.  Each workload runs in a process of its own
(``perfbench/workloads.py``), so ``peak_rss_mib`` and ``setup_s`` belong to
that workload alone.  Before anything is timed this script pins BLAS/OpenMP
to one thread, points the native-kernel cache into ``.perfbench/`` and
loads the kernels once, so a first-ever compile never lands in ``setup_s``.

With ``--trace 0`` the last stdout line carries the end-to-end metrics;
``setup_s`` is the median over several fresh processes.  With
``--trace 1`` it carries the per-layer metrics of the traced run.  See
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

WORKLOADS = ("sphere_true_20k", "sphere_noisy_3k", "campaign_sweep")

#: Extra processes that only set up, so ``setup_s`` is a median.
SETUP_PROBES = 4

#: Every run ends within this many seconds, or fails.
DEADLINE_S = 170.0

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def pin_environment() -> None:
    """One compute thread everywhere and a native cache in the checkout."""
    for name in THREAD_VARS:
        os.environ[name] = "1"
    os.environ["REPRO_NATIVE_CACHE"] = str(ROOT / ".perfbench" / "native")


def warm_caches() -> bool:
    """Compile (or find) the native kernels and the package's bytecode
    before any timed step; True when the native kernels loaded."""
    sys.path.insert(0, str(SRC))
    import repro.service.worker  # noqa: F401  (fills __pycache__)
    from repro.geometry.native import load_kernels

    return load_kernels() is not None


def run_child(args, deadline: float, *, setup_only: bool) -> dict:
    """Run ``workloads.py`` once; returns its JSON report."""
    command = [
        sys.executable,
        str(BENCH_DIR / "workloads.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    if setup_only:
        command.append("--setup-only")
    spawned_at = time.monotonic()
    try:
        proc = subprocess.run(
            command + ["--spawned-at", repr(spawned_at)],
            cwd=ROOT,
            stdout=subprocess.PIPE,
            text=True,
            timeout=max(1.0, deadline - spawned_at),
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{args.workload} did not finish in {DEADLINE_S:.0f} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{args.workload} exited with code {proc.returncode}")
    for line in lines[:-1]:
        print(line)
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    deadline = time.monotonic() + DEADLINE_S
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}", file=sys.stderr)
        return 2

    pin_environment()
    native = warm_caches()
    print(f"# nproc={os.cpu_count()} native_kernels={'loaded' if native else 'unavailable'} "
          + " ".join(f"{name}={os.environ[name]}" for name in THREAD_VARS))
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_PROBES):
                setups.append(run_child(args, deadline, setup_only=True)["setup_s"])
        report = run_child(args, deadline, setup_only=False)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    metrics = report["metrics"]
    if not args.trace:
        setups.append(report["setup_s"])
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
        print(f"# setup_s samples: {len(setups)}; timed samples: {report['samples']}")
    attempted, failed = report["attempted"], report["failed"]
    print(f"# attempted={attempted} failed={failed} "
          f"failed_frac={failed / max(attempted, 1)}")
    for name in sorted(metrics):
        print(f"# {name:28s} {metrics[name]['value']:.6g} {metrics[name]['unit']}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
