"""repro-bench: pipeline-stage perf regression against committed baselines.

Runs the pinned ``ubf_2k`` scenario through every pipeline stage via
:func:`repro.evaluation.bench.run_bench`, prints the bench table, writes
``BENCH_<stage>.json`` artifacts, and compares them against the baselines
committed under ``benchmarks/baselines/``.

Two kinds of gate:

* **Counters** (hardware-independent): Theorem-1 work counters, candidate
  and boundary set sizes, and mesh topology must match the baseline within
  a tight relative tolerance.  Any drift means the algorithm changed.
* **Wall time** (hardware-dependent): the batched kernel must stay
  within a generous factor of the baseline median and must beat the naive
  oracle by the acceptance floor (``speedup_vs_naive >= 2``).
"""

from __future__ import annotations

from pathlib import Path

from benchmarks.conftest import print_banner
from repro.evaluation.bench import (
    DEFAULT_COUNTER_RTOL,
    DEFAULT_MIN_SPEEDUP,
    DEFAULT_TIME_FACTOR,
    check_regression,
    render_bench_table,
    run_bench,
    write_artifacts,
)

BASELINE_DIR = Path(__file__).parent / "baselines"
ARTIFACT_DIR = Path(__file__).parent / "artifacts"


def test_perf_regression(benchmark):
    results = benchmark.pedantic(
        lambda: run_bench(repeat=3), rounds=1, iterations=1
    )

    print_banner("repro-bench -- pipeline stage timings (scenario ubf_2k)")
    print(render_bench_table(results))

    ARTIFACT_DIR.mkdir(exist_ok=True)
    write_artifacts(results, ARTIFACT_DIR)

    ubf = results["ubf"]
    assert ubf["kernels_agree"], "batched kernel diverged from naive oracle"
    assert ubf["speedup_vs_naive"] >= DEFAULT_MIN_SPEEDUP, (
        f"batched kernel only {ubf['speedup_vs_naive']:.1f}x faster than "
        f"naive (acceptance floor: {DEFAULT_MIN_SPEEDUP}x)"
    )

    issues = check_regression(
        results,
        BASELINE_DIR,
        time_factor=DEFAULT_TIME_FACTOR,
        counter_rtol=DEFAULT_COUNTER_RTOL,
        min_speedup=DEFAULT_MIN_SPEEDUP,
    )
    assert not issues, "perf regression vs committed baseline:\n" + "\n".join(
        f"  - {issue}" for issue in issues
    )
