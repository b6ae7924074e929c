"""One benchmark workload in a process of its own (started by ``run.py``).

    python3 perfbench/workloads.py --workload NAME --seed N --seconds S \\
        --trace 0|1 --spawned-at T [--setup-only]

Builds the workload's inputs from the seed, times the public entry points
users call -- ``BoundaryDetector.detect()``, or the service path
``JobStore.submit`` -> ``JobStore.claim_next`` -> ``Worker.run_one`` -- with
``DetectorConfig`` / ``JobSpec`` defaults, checks every output, and prints
one JSON report as its last stdout line.  ``T`` is the parent's
``time.monotonic()`` just before it started this process (the clock is
system-wide on Linux), so ``setup_s`` runs from process start to inputs
ready.
"""

from __future__ import annotations

import argparse
import gc
import json
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from repro.core.config import DetectorConfig  # noqa: E402
from repro.core.pipeline import BoundaryDetector  # noqa: E402
from repro.evaluation.metrics import evaluate_detection  # noqa: E402
from repro.network.generator import DeploymentConfig, generate_network  # noqa: E402
from repro.network.measurement import UniformAbsoluteError  # noqa: E402
from repro.service.jobstore import JobSpec, JobStore  # noqa: E402
from repro.service.worker import Worker, detector_config_for  # noqa: E402
from repro.shapes.library import scenario_by_name  # noqa: E402
from repro.surface.pipeline import SurfaceBuilder, SurfaceConfig  # noqa: E402

from traced import DETECT_LAYERS, Spans, peak_rss_mib, traced_detect  # noqa: E402

#: The seed ``references.json`` was recorded at (also the default seed).
REFERENCE_SEED = 11
REFERENCES = json.loads((BENCH_DIR / "references.json").read_text())

#: Single-network workloads: one sphere, target degree 24.  With perfect
#: ranging every seed must detect the whole true boundary (n_missing = 0).
SPHERES = {
    "sphere_true_20k": {"n_surface": 6000, "n_interior": 14000, "error": 0.0},
    "sphere_noisy_3k": {"n_surface": 1200, "n_interior": 1800, "error": 0.3},
}
SPHERE_DEGREE = 24.0

CAMPAIGN = "campaign_sweep"
CAMPAIGN_SCENARIOS = ("sphere", "one_hole", "two_holes", "bent_pipe")
CAMPAIGN_ERRORS = (0.0, 0.1, 0.2)

WORK_DIR = ROOT / ".perfbench"


def detection_summary(network, result) -> Dict[str, int]:
    """The counts a run is checked on: outputs, quality, Theorem-1 work."""
    stats = evaluate_detection(network, result)
    return {
        "n_nodes": network.n_nodes,
        "n_candidates": len(result.candidates),
        "n_boundary": len(result.boundary),
        "n_groups": len(result.groups),
        "n_truth": stats.n_truth,
        "n_correct": stats.n_correct,
        "n_mistaken": stats.n_mistaken,
        "n_missing": stats.n_missing,
        "balls_tested": sum(o.balls_tested for o in result.ubf_outcomes),
        "points_checked": sum(o.points_checked for o in result.ubf_outcomes),
    }


def structure_problems(result) -> List[str]:
    """Invariants every detection result must satisfy."""
    problems = []
    if not result.boundary <= result.candidates:
        problems.append("boundary is not a subset of the candidates")
    grouped = sorted(n for group in result.groups for n in group)
    if grouped != sorted(result.boundary):
        problems.append("groups do not partition the boundary")
    return problems


def reference_problems(seed: int, observed: Any, reference: Any, what: str) -> List[str]:
    """Mismatches against ``references.json`` (recorded at REFERENCE_SEED)."""
    if seed != REFERENCE_SEED or observed == reference:
        return []
    return [f"{what}: {observed} != reference {reference}"]


class Outcome:
    """Attempt/failure counts, problems found, and the metrics of a run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.metrics: Dict[str, Dict[str, Any]] = {}
        self.outputs: Any = None
        self.samples = 0

    def attempt(self, problems: List[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = {"value": value, "unit": unit}


def layer_metrics(out: Outcome, spans: Spans, summaries: List[Dict[str, int]]) -> None:
    """Per-layer metrics shared by every workload's traced run."""
    out.metric("network.generate_s", spans.seconds("network"), "s")
    out.metric("network.edges", spans.counter("network", "edges"), "count")
    out.metric("localization.s", spans.seconds("localization"), "s")
    out.metric("localization.frames",
               spans.counter("localization", "n_frames"), "count")
    out.metric("localization.members",
               spans.counter("localization", "total_members"), "count")
    out.metric("localization.smacof_iters",
               spans.counter("localization", "total_smacof_iterations"), "count")
    out.metric("localization.rss_mib", spans.rss_mib("localization"), "MiB")
    balls = spans.counter("ubf", "balls_tested")
    points = spans.counter("ubf", "points_checked")
    out.metric("ubf.s", spans.seconds("ubf"), "s")
    out.metric("ubf.balls_tested", balls, "count")
    out.metric("ubf.points_checked", points, "count")
    out.metric("ubf.points_per_ball", points / balls if balls else 0.0, "ratio")
    out.metric("ubf.candidates", spans.counter("ubf", "n_candidates"), "count")
    out.metric("ubf.rss_mib", spans.rss_mib("ubf"), "MiB")
    candidates = spans.counter("iff", "n_candidates")
    out.metric("iff.s", spans.seconds("iff"), "s")
    out.metric("iff.demoted", spans.counter("iff", "n_demoted"), "count")
    out.metric("iff.rss_mib", spans.rss_mib("iff"), "MiB")
    out.metric("iff.yield",
               spans.counter("iff", "n_kept") / candidates if candidates else 0.0,
               "ratio")
    out.metric("grouping.s", spans.seconds("grouping"), "s")
    out.metric("grouping.groups", spans.counter("grouping", "n_groups"), "count")
    out.metric("surface.s", spans.seconds("surface"), "s")
    out.metric("surface.meshes", spans.counter("surface", "n_meshes"), "count")
    out.metric("surface.triangles",
               spans.counter("surface", "n_triangles"), "count")
    out.metric("service.submit_s", spans.seconds("service.submit"), "s")
    out.metric("service.claim_s", spans.seconds("service.claim_next"), "s")
    out.metric("service.run_one_s", spans.seconds("service.run_one"), "s")
    out.metric("service.cache_hit_submit_s",
               spans.seconds("service.cache_hit_submit"), "s")
    out.metric("service.cache_hits",
               spans.counter("service.cache_hit_submit", "cache_hit"), "count")
    truth = sum(s["n_truth"] for s in summaries) or 1
    out.metric("evaluation.mistaken_frac",
               sum(s["n_mistaken"] for s in summaries) / truth, "ratio")
    out.metric("evaluation.missing_frac",
               sum(s["n_missing"] for s in summaries) / truth, "ratio")


def generate(spans: Spans, scenario: str, deployment: DeploymentConfig):
    with spans.span("network", scenario=scenario) as counters:
        network = generate_network(
            scenario_by_name(scenario), deployment, scenario=scenario
        )
    counters.update(n_nodes=network.n_nodes, edges=network.graph.n_edges)
    return network


class SphereWorkload:
    """``detect()`` on one sphere network at perfect or noisy ranging."""

    def __init__(self, name: str, seed: int):
        self.name = name
        self.seed = seed
        self.params = SPHERES[name]
        error = self.params["error"]
        self.config = (
            DetectorConfig(error_model=UniformAbsoluteError(error))
            if error > 0 else DetectorConfig()
        )
        self.network = None

    def setup(self, spans: Spans) -> None:
        self.network = generate(spans, "sphere", DeploymentConfig(
            n_surface=self.params["n_surface"],
            n_interior=self.params["n_interior"],
            target_degree=SPHERE_DEGREE,
            seed=self.seed,
        ))

    def close(self) -> None:
        pass

    def rng(self) -> np.random.Generator:
        return np.random.default_rng(self.seed)

    def check(self, result) -> Tuple[Dict[str, int], tuple, List[str]]:
        """(summary, node sets, problems) of one detection; the node sets
        are what the traced chain and ``detect()`` must agree on."""
        summary = detection_summary(self.network, result)
        problems = structure_problems(result)
        if self.params["error"] == 0 and summary["n_missing"]:
            problems.append(f"{summary['n_missing']} boundary nodes missing")
        problems += reference_problems(
            self.seed, summary, REFERENCES[self.name], "detection summary"
        )
        nodes = (sorted(result.candidates), sorted(result.boundary), result.groups)
        return summary, nodes, problems

    def detect_once(self):
        """One untraced ``detect()`` call: (seconds, summary, node sets,
        problems); summary and node sets are None when the call raised.

        The result is dropped here and the heap collected before the clock
        starts, so no earlier result is alive during a timed call.
        """
        detector = BoundaryDetector(self.config)
        rng = self.rng()
        gc.collect()
        start = time.perf_counter()
        try:
            result = detector.detect(self.network, rng=rng)
        except Exception:  # a failed detection is counted, not fatal
            return time.perf_counter() - start, None, None, [traceback.format_exc()]
        elapsed = time.perf_counter() - start
        return (elapsed, *self.check(result))

    def measure(self, seconds: float) -> Outcome:
        out = Outcome()
        samples, summaries = [], []
        start = time.perf_counter()
        while not samples or time.perf_counter() - start < seconds:
            elapsed, summary, _, problems = self.detect_once()
            out.attempt(problems)
            samples.append(elapsed)
            if summary is not None:
                summaries.append(summary)
        if any(s != summaries[0] for s in summaries):
            out.problems.append("repeated detections disagree")
            out.failed = out.attempted
        summary = summaries[0] if summaries else {}
        truth = summary.get("n_truth", 0) or 1
        out.outputs = summary
        out.samples = len(samples)
        out.metric("detect_s", statistics.median(samples), "s")
        out.metric("nodes_per_s",
                   self.network.n_nodes * len(samples) / sum(samples), "nodes/s")
        out.metric("peak_rss_mib", peak_rss_mib(), "MiB")
        out.metric("correct_frac", summary.get("n_correct", 0) / truth, "ratio")
        return out

    def traced(self, spans: Spans) -> Outcome:
        # The chain runs first, so each layer's RSS reading is its own
        # high-water mark rather than that of the untraced call after it.
        out = Outcome()
        with spans.span("detect.traced"):
            chained = traced_detect(spans, self.network, self.config, self.rng())
        out.outputs, chained_nodes, problems = self.check(chained)
        out.attempt(problems)
        del chained
        elapsed, summary, nodes, problems = self.detect_once()
        if summary is not None and nodes != chained_nodes:
            problems.append("traced chain differs from detect()")
        out.attempt(problems)
        layer_metrics(out, spans, [out.outputs])
        layer_total = sum(spans.seconds(name) for name in DETECT_LAYERS)
        out.metric("trace.overhead_s", layer_total - elapsed, "s")
        return out


def job_summary(doc: Dict[str, Any]) -> Dict[str, int]:
    """The comparable counts of one service job result document."""
    surface = doc.get("surface") or {}
    return {
        "n_nodes": doc["n_nodes"],
        "n_candidates": doc["n_candidates"],
        "n_boundary": doc["n_boundary"],
        "n_groups": doc["n_groups"],
        **doc["stats"],
        "n_meshes": surface.get("n_meshes", 0),
        "n_triangles": surface.get("n_triangles", 0),
    }


class CampaignWorkload:
    """A 12-job sweep through a fresh file-backed store and one worker."""

    def __init__(self, seed: int):
        self.seed = seed
        self.specs = [
            JobSpec(
                scenario=scenario,
                n_surface=300,
                n_interior=500,
                target_degree=18.0,
                seed=seed,
                error=error,
            )
            for scenario in CAMPAIGN_SCENARIOS
            for error in CAMPAIGN_ERRORS
        ]
        self.root: Optional[Path] = None
        self.store: Optional[JobStore] = None

    def setup(self, spans: Spans) -> None:
        """A fresh store under a temp dir plus the first submit pass."""
        WORK_DIR.mkdir(parents=True, exist_ok=True)
        self.root = Path(tempfile.mkdtemp(prefix="store-", dir=WORK_DIR))
        self.store = JobStore(self.root)
        for spec in self.specs:
            with spans.span("service.submit"):
                self.store.submit(spec)

    def close(self) -> None:
        if self.root is not None:
            shutil.rmtree(self.root, ignore_errors=True)
            self.root = None

    def drain(self, spans: Spans, out: Outcome):
        """Claim and run every job; returns (per-job seconds, drain seconds,
        summaries in submission order).  Each job is one attempt."""
        worker = Worker(self.store, "perfbench")
        references = REFERENCES[CAMPAIGN]["jobs"]
        job_times, summaries = [], []
        start = time.perf_counter()
        while True:
            began = time.perf_counter()
            with spans.span("service.claim_next"):
                record = self.store.claim_next(worker.worker_id, worker.lease_ttl)
            if record is None:
                break
            with spans.span("service.run_one"):
                done = worker.run_one(record)
            job_times.append(time.perf_counter() - began)
            index = len(summaries)
            if done.state != "done" or done.degraded or done.attempts != 1:
                out.attempt([f"job {done.job_id} ended {done.state} (degraded="
                             f"{done.degraded}, attempts={done.attempts})"])
                continue
            summaries.append(job_summary(done.result))
            out.attempt(reference_problems(
                self.seed, summaries[-1], references[index], f"job {index}"
            ))
        return job_times, time.perf_counter() - start, summaries

    def resubmit(self, spans: Spans, out: Outcome, summaries) -> None:
        """Submit the sweep again: each submit is an attempt that must hit
        the result cache and return the result of the first pass."""
        for index, spec in enumerate(self.specs):
            with spans.span("service.cache_hit_submit") as counters:
                record = self.store.submit(spec)
            counters["cache_hit"] = int(record.cache_hit)
            hit = job_summary(record.result) if record.cache_hit else None
            first = summaries[index] if index < len(summaries) else None
            out.attempt([] if hit is not None and hit == first else
                        [f"resubmit {index} is not a cache hit of the first pass"])

    def measure(self, seconds: float) -> Outcome:
        out = Outcome()
        null = Spans(enabled=False)
        job_times: List[float] = []
        nodes = 0
        drain_total = 0.0
        start = time.perf_counter()
        while True:
            times, drain_s, summaries = self.drain(null, out)
            job_times += times
            drain_total += drain_s
            nodes += sum(s["n_nodes"] for s in summaries)
            self.resubmit(null, out, summaries)
            if time.perf_counter() - start >= seconds:
                break
            self.close()
            self.setup(null)
        truth = sum(s["n_truth"] for s in summaries) or 1
        out.outputs = summaries
        out.metric("detect_s", statistics.median(job_times), "s")
        out.metric("nodes_per_s", nodes / drain_total, "nodes/s")
        out.metric("peak_rss_mib", peak_rss_mib(), "MiB")
        out.metric("correct_frac",
                   sum(s["n_correct"] for s in summaries) / truth, "ratio")
        out.samples = len(job_times)
        return out

    def traced_job(self, spans: Spans, spec: JobSpec) -> Dict[str, int]:
        """What ``execute_job`` does for ``spec``, one layer at a time."""
        network = generate(spans, spec.scenario, DeploymentConfig(
            n_surface=spec.n_surface,
            n_interior=spec.n_interior,
            target_degree=spec.target_degree,
            seed=spec.seed,
        ))
        config = detector_config_for(spec, degraded=False)
        result = traced_detect(
            spans, network, config, np.random.default_rng(spec.seed)
        )
        with spans.span("evaluation"):
            stats = evaluate_detection(network, result)
        with spans.span("surface") as counters:
            meshes = SurfaceBuilder(SurfaceConfig(k=spec.surface_k)).build(
                network.graph, result.groups
            )
        counters.update(
            n_meshes=len(meshes),
            n_triangles=sum(len(m.triangles()) for m in meshes),
        )
        return {
            "n_nodes": network.n_nodes,
            "n_candidates": len(result.candidates),
            "n_boundary": len(result.boundary),
            "n_groups": len(result.groups),
            "n_truth": stats.n_truth,
            "n_found": stats.n_found,
            "n_correct": stats.n_correct,
            "n_mistaken": stats.n_mistaken,
            "n_missing": stats.n_missing,
            "n_meshes": counters["n_meshes"],
            "n_triangles": counters["n_triangles"],
        }

    def traced(self, spans: Spans) -> Outcome:
        out = Outcome()
        chained = []
        for spec in self.specs:
            with spans.span("job.traced", scenario=spec.scenario):
                chained.append(self.traced_job(spans, spec))
        _, _, summaries = self.drain(spans, out)
        self.resubmit(spans, out, summaries)
        # Each chained job is an attempt: it must match its service job,
        # and at the reference seed the sweep's UBF work must match too.
        for index, summary in enumerate(chained):
            job = summaries[index] if index < len(summaries) else None
            out.attempt([] if summary == job else
                        [f"traced chain differs from service job {index}"])
        counters = {
            key: spans.counter("ubf", key) for key in ("balls_tested", "points_checked")
        }
        out.attempt(reference_problems(
            self.seed, counters,
            {key: REFERENCES[CAMPAIGN][key] for key in counters}, "UBF counters",
        ))
        out.outputs = chained
        layer_metrics(out, spans, chained)
        layers = ("network", *DETECT_LAYERS, "evaluation", "surface")
        layer_total = sum(spans.seconds(name) for name in layers)
        out.metric("trace.overhead_s",
                   layer_total - spans.seconds("service.run_one"), "s")
        return out


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*SPHERES, CAMPAIGN])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    spans = Spans()
    if args.workload == CAMPAIGN:
        workload = CampaignWorkload(args.seed)
    else:
        workload = SphereWorkload(args.workload, args.seed)
    try:
        workload.setup(spans)
        setup_s = time.monotonic() - args.spawned_at
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        if args.trace:
            out = workload.traced(spans)
            path = WORK_DIR / "traces" / f"{args.workload}-seed{args.seed}.jsonl"
            spans.write(path)
            print(f"# spans written to {path.relative_to(ROOT)}")
        else:
            out = workload.measure(args.seconds)
    finally:
        workload.close()
    print("# outputs: " + json.dumps(out.outputs, sort_keys=True))
    for problem in out.problems:
        print(f"# problem: {problem.strip()}", file=sys.stderr)
    print(json.dumps({
        "setup_s": setup_s,
        "samples": out.samples,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": out.metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
