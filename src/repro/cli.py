"""Command-line interface.

Subcommands::

    repro-boundary generate  --scenario sphere --out net.json
    repro-boundary detect    --network net.json --error 0.2 --out result.json
    repro-boundary surface   --network net.json --result result.json --out-prefix mesh
    repro-boundary scenario  --scenario one_hole
    repro-boundary sweep     --scenario sphere --levels 0,0.2,0.4
    repro-boundary bench     --stages ubf,iff --check-regression
    repro-boundary trace     result.trace.jsonl
    repro-campaign run       --spec campaigns/error_sweep_mini.json --root store/

``generate`` writes a network JSON; ``detect`` runs the UBF+IFF pipeline
on it (``--workers N`` shards MDS frame construction across processes;
every other stage runs in-process); ``surface`` builds and exports the
triangular boundary meshes; ``scenario`` runs one of the Figs. 6-10
scenarios end to end and prints the summary; ``sweep`` prints the
Fig. 1(g)-style error-sweep table; ``bench`` times the pipeline stages on
pinned scenarios, writes ``BENCH_<stage>.json`` artifacts, and optionally
gates against the committed baseline (see docs/PERFORMANCE.md).

``repro-campaign`` (also reachable as ``repro-boundary campaign``) runs
declarative experiment campaigns through the durable job service:
``run`` submits the spec's cell cross-product as content-addressed jobs,
drains them with in-process workers, and aggregates the results into the
committed ``results/`` tables; ``status`` reports per-axis progress;
``expand`` and ``render`` inspect without executing (see
docs/CAMPAIGNS.md).

``detect`` and ``bench`` accept ``--trace PATH`` to record a structured
JSONL execution trace (nested stage spans with wall times and counters;
see docs/OBSERVABILITY.md); ``trace`` validates such a file against the
trace schema (``--validate``) or pretty-prints it as an ASCII span tree.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

import numpy as np

from repro.core.config import (
    LOCALIZATION_MODES,
    DetectorConfig,
    IFFConfig,
    LocalizationConfig,
    UBFConfig,
)
from repro.core.pipeline import BoundaryDetector
from repro.evaluation.experiments import run_error_sweep, run_scenario
from repro.evaluation.metrics import evaluate_detection
from repro.evaluation.reporting import (
    render_error_sweep_counts,
    render_mistaken_distribution,
    render_missing_distribution,
    render_scenario_result,
)
from repro.io.meshio import export_mesh_obj
from repro.io.serialization import (
    load_detection_result,
    load_network,
    save_detection_result,
    save_network,
    write_atomic,
)
from repro.network.generator import DeploymentConfig, generate_network
from repro.network.localization import DEFAULT_ENGINE, ENGINES
from repro.network.measurement import NoError, UniformAbsoluteError
from repro.network.stats import compute_network_stats
from repro.observability.export import write_trace
from repro.observability.tracer import NULL_TRACER, TickClock, Tracer
from repro.shapes.library import SCENARIOS, scenario_by_name
from repro.surface.pipeline import SurfaceBuilder, SurfaceConfig


def _add_trace_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="write a structured JSONL execution trace here "
        "(see docs/OBSERVABILITY.md)",
    )
    parser.add_argument(
        "--trace-clock",
        choices=("wall", "tick"),
        default="wall",
        help="span timestamp source: wall time, or a deterministic tick "
        "counter so traces byte-diff across runs (default: wall)",
    )


def _tracer_from_args(args) -> "Tracer":
    """A live tracer when ``--trace`` was given, else the no-op singleton."""
    if not getattr(args, "trace", None):
        return NULL_TRACER
    if getattr(args, "trace_clock", "wall") == "tick":
        return Tracer(clock=TickClock(), shard_clock=TickClock)
    return Tracer()


def _write_trace_if_requested(args, tracer) -> None:
    if tracer.enabled and getattr(args, "trace", None):
        _ensure_parent_dir(args.trace)
        write_trace(tracer.roots, args.trace)
        print(f"wrote {args.trace}")


def _ensure_parent_dir(path: str) -> None:
    """write_atomic stages its tmp file next to the target, so the
    target's directory must exist before the write."""
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)


def _add_deployment_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scenario", choices=sorted(SCENARIOS), default="sphere")
    parser.add_argument("--surface-nodes", type=int, default=600)
    parser.add_argument("--interior-nodes", type=int, default=1200)
    parser.add_argument("--degree", type=float, default=25.0)
    parser.add_argument("--seed", type=int, default=0)


def _deployment_from_args(args) -> DeploymentConfig:
    return DeploymentConfig(
        n_surface=args.surface_nodes,
        n_interior=args.interior_nodes,
        target_degree=args.degree,
        seed=args.seed,
    )


def _detector_from_args(args) -> DetectorConfig:
    model = NoError() if args.error == 0 else UniformAbsoluteError(args.error)
    return DetectorConfig(
        ubf=UBFConfig(epsilon=args.epsilon),
        iff=IFFConfig(theta=args.theta, ttl=args.ttl),
        localization_config=LocalizationConfig(
            engine=getattr(args, "engine", DEFAULT_ENGINE)
        ),
        error_model=model,
        localization=getattr(args, "localization", "auto"),
        workers=getattr(args, "workers", 1),
    )


def cmd_generate(args) -> int:
    """Generate a network and write it to JSON."""
    network = generate_network(
        scenario_by_name(args.scenario),
        _deployment_from_args(args),
        scenario=args.scenario,
    )
    save_network(network, args.out)
    print(network.summary())
    print(f"wrote {args.out}")
    return 0


def cmd_detect(args) -> int:
    """Run boundary detection on a saved network.

    With ``--trace``, the surface stage is additionally run (meshes
    discarded) so the trace covers every per-group construction attempt,
    not just detection.
    """
    network = load_network(args.network)
    detector = BoundaryDetector(_detector_from_args(args))
    tracer = _tracer_from_args(args)
    with tracer.span(
        "cli.detect",
        network=args.network,
        seed=args.seed,
        workers=args.workers,
    ):
        result = detector.detect(
            network, rng=np.random.default_rng(args.seed), tracer=tracer
        )
        if tracer.enabled:
            SurfaceBuilder(SurfaceConfig(), tracer=tracer).build_records(
                network.graph, result.groups
            )
    stats = evaluate_detection(network, result)
    print(stats.as_row())
    print(f"groups: {[len(g) for g in result.groups]}")
    if args.out:
        save_detection_result(result, args.out)
        print(f"wrote {args.out}")
    _write_trace_if_requested(args, tracer)
    return 0


def cmd_surface(args) -> int:
    """Build boundary meshes from a saved detection result."""
    network = load_network(args.network)
    result = load_detection_result(args.result)
    builder = SurfaceBuilder(SurfaceConfig(k=args.k))
    meshes = builder.build(network.graph, result.groups)
    for i, mesh in enumerate(meshes):
        print(mesh.summary())
        if args.out_prefix:
            path = f"{args.out_prefix}_{i}.obj"
            export_mesh_obj(mesh, network.graph, path)
            print(f"wrote {path}")
    return 0


def cmd_scenario(args) -> int:
    """Run one evaluation scenario end to end."""
    if args.svg:
        # Re-run the pieces explicitly so the artifacts are available.
        network = generate_network(
            scenario_by_name(args.scenario),
            _deployment_from_args(args),
            scenario=args.scenario,
        )
        detector = BoundaryDetector(_detector_from_args(args))
        detection = detector.detect(network, rng=np.random.default_rng(args.seed))
        meshes = SurfaceBuilder(SurfaceConfig(k=args.k)).build(
            network.graph, detection.groups
        )
        from repro.io.svg import render_detection_svg

        render_detection_svg(
            network,
            detection.boundary,
            args.svg,
            mesh=meshes[0] if meshes else None,
        )
        print(f"wrote {args.svg}")
    result = run_scenario(
        args.scenario,
        _deployment_from_args(args),
        detector_config=_detector_from_args(args),
        surface_config=SurfaceConfig(k=args.k),
    )
    print(render_scenario_result(result))
    return 0


def cmd_bench(args) -> int:
    """Run repro-bench and optionally gate against the committed baseline."""
    from repro.evaluation.bench import (
        STAGES,
        check_regression,
        render_bench_table,
        run_bench,
        write_artifacts,
    )

    stages = [s for s in args.stages.split(",") if s] if args.stages else list(STAGES)
    tracer = _tracer_from_args(args)
    with tracer.span(
        "cli.bench", scenario_id=args.scenario_id, repeat=args.repeat
    ):
        results = run_bench(
            stages,
            scenario_id=args.scenario_id,
            repeat=args.repeat,
            time_naive=not args.skip_naive,
            full_oracle=args.oracle,
            tracer=tracer,
        )
    print(render_bench_table(results))
    if args.out_dir:
        paths = write_artifacts(results, args.out_dir)
        for path in paths:
            print(f"wrote {path}")
    _write_trace_if_requested(args, tracer)
    if args.check_regression:
        issues = check_regression(
            results,
            args.baseline_dir,
            time_factor=args.time_factor,
            counter_rtol=args.counter_rtol,
            min_speedup=args.min_speedup,
            min_engine_speedup=args.min_engine_speedup,
            rss_factor=args.rss_factor,
        )
        if issues:
            print("\nPERF REGRESSION:")
            for issue in issues:
                print(f"  - {issue}")
            return 1
        print("\nregression check: OK (baseline " + str(args.baseline_dir) + ")")
    return 0


def cmd_analyze(args) -> int:
    """Report the holes of a saved detection result."""
    from repro.applications.hole_analysis import rank_holes

    network = load_network(args.network)
    result = load_detection_result(args.result)
    if len(result.groups) <= 1:
        print("no holes: the detection found a single (outer) boundary group")
        return 0
    for report in rank_holes(network.graph, result.groups):
        print(report.as_row())
    return 0


def cmd_sweep(args) -> int:
    """Run the Fig. 1(g-i) error sweep and print the three tables."""
    network = generate_network(
        scenario_by_name(args.scenario),
        _deployment_from_args(args),
        scenario=args.scenario,
    )
    print(network.summary())
    levels = [float(x) for x in args.levels.split(",")]
    points = run_error_sweep(network, levels, seed=args.seed)
    print("\n[Fig. 1(g)] boundary node counts vs distance measurement error")
    print(render_error_sweep_counts(points))
    print("\n[Fig. 1(h)] mistaken boundary node hop distribution")
    print(render_mistaken_distribution(points))
    print("\n[Fig. 1(i)] missing boundary node hop distribution")
    print(render_missing_distribution(points))
    return 0


def cmd_campaign_run(args) -> int:
    """Run a campaign spec through the job store; write its tables."""
    from repro.evaluation.campaign import load_spec
    from repro.service.campaign import run_campaign
    from repro.service.jobstore import JobStore

    spec = load_spec(args.spec)
    store = JobStore(args.root)
    tracer = _tracer_from_args(args)
    report = run_campaign(
        store,
        spec,
        workers=args.workers,
        max_attempts=args.max_attempts,
        lease_ttl=args.lease_ttl,
        tracer=tracer,
    )
    print(
        f"campaign {spec.name}: cells={report.n_cells} "
        f"submitted={report.submitted} reused={report.reused} "
        f"cache_hits={report.cache_hits} executed={report.executed} "
        f"done={report.done} dead={report.dead} degraded={report.degraded}"
    )
    out = args.out if args.out else spec.output
    if report.tables is not None:
        print()
        print(report.tables, end="")
        if out and not args.no_output:
            _ensure_parent_dir(out)
            write_atomic(out, report.tables)
            print(f"wrote {out}")
    _write_trace_if_requested(args, tracer)
    if args.expect_cached and (report.executed or report.submitted):
        print(
            "ERROR: --expect-cached, but this run submitted "
            f"{report.submitted} and executed {report.executed} cells"
        )
        return 1
    return 0 if report.dead == 0 else 1


def cmd_campaign_status(args) -> int:
    """Report done/queued/failed counts per axis slice, without executing."""
    from repro.evaluation.campaign import load_spec
    from repro.service.campaign import campaign_status
    from repro.service.jobstore import JobStore

    spec = load_spec(args.spec)
    status = campaign_status(JobStore(args.root), spec)
    counts = status.counts()
    total = len(status.cells)
    summary = " ".join(f"{state}={counts[state]}" for state in sorted(counts))
    print(f"campaign {spec.name}: cells={total} {summary}")
    for axis, by_value in sorted(status.slice_counts().items()):
        print(f"  by {axis}:")
        for value, by_state in sorted(by_value.items()):
            states = " ".join(
                f"{state}={by_state[state]}" for state in sorted(by_state)
            )
            print(f"    {value}: {states}")
    return 0 if status.complete else 1


def cmd_campaign_expand(args) -> int:
    """Print the campaign's expanded cell cross-product."""
    from repro.evaluation.campaign import expand, load_spec

    spec = load_spec(args.spec)
    cells = expand(spec)
    print(
        f"campaign {spec.name}: kind={spec.kind} cells={len(cells)} "
        f"spec_hash={spec.spec_hash()[:16]}"
    )
    for cell in cells:
        axes = " ".join(f"{k}={v}" for k, v in cell.axes.items())
        print(f"  [{cell.index}] {cell.kind} {axes}")
    return 0


def cmd_campaign_render(args) -> int:
    """Render the campaign tables from already-completed store jobs."""
    from repro.evaluation.campaign import load_spec
    from repro.service.campaign import CampaignIncomplete, render_from_store
    from repro.service.jobstore import JobStore

    spec = load_spec(args.spec)
    try:
        tables = render_from_store(JobStore(args.root), spec)
    except CampaignIncomplete as exc:
        print(f"ERROR: {exc}")
        return 1
    print(tables, end="")
    out = args.out if args.out else spec.output
    if out and not args.no_output:
        _ensure_parent_dir(out)
        write_atomic(out, tables)
        print(f"wrote {out}")
    return 0


def _add_campaign_commands(sub) -> None:
    """Attach the campaign run/status/expand/render subcommands."""

    def common(p, store=True):
        p.add_argument("--spec", required=True, help="campaign spec JSON file")
        if store:
            p.add_argument(
                "--root", required=True, help="job store root directory"
            )

    p = sub.add_parser(
        "run", help="submit, drain, and aggregate a campaign (resumable)"
    )
    common(p)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--max-attempts", type=int, default=3)
    p.add_argument("--lease-ttl", type=float, default=30.0)
    p.add_argument(
        "--out", default=None, help="table output path (overrides spec.output)"
    )
    p.add_argument(
        "--no-output",
        action="store_true",
        help="do not write the table file, only print",
    )
    p.add_argument(
        "--expect-cached",
        action="store_true",
        help="exit 1 unless the run was fully memoized (zero cells executed)",
    )
    _add_trace_arg(p)
    p.set_defaults(func=cmd_campaign_run)

    p = sub.add_parser(
        "status", help="done/queued/failed counts per axis slice"
    )
    common(p)
    p.set_defaults(func=cmd_campaign_status)

    p = sub.add_parser("expand", help="print the expanded cell cross-product")
    common(p, store=False)
    p.set_defaults(func=cmd_campaign_expand)

    p = sub.add_parser(
        "render", help="re-render tables from completed store jobs"
    )
    common(p)
    p.add_argument("--out", default=None)
    p.add_argument("--no-output", action="store_true")
    p.set_defaults(func=cmd_campaign_render)


def build_campaign_parser() -> argparse.ArgumentParser:
    """The ``repro-campaign`` argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro-campaign",
        description="Memoized, resumable experiment campaigns over the "
        "repro job service (see docs/CAMPAIGNS.md)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    _add_campaign_commands(sub)
    return parser


def campaign_main(argv: Optional[List[str]] = None) -> int:
    """``repro-campaign`` entry point."""
    parser = build_campaign_parser()
    args = parser.parse_args(argv)
    return args.func(args)


def cmd_trace(args) -> int:
    """Validate a JSONL trace file and pretty-print its span tree."""
    from repro.observability.export import (
        parse_trace,
        render_trace_tree,
        validate_trace_lines,
    )

    with open(args.path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    errors = validate_trace_lines(lines)
    if errors:
        print(f"{args.path}: INVALID ({len(errors)} schema errors)")
        for error in errors[:20]:
            print(f"  - {error}")
        if len(errors) > 20:
            print(f"  ... and {len(errors) - 20} more")
        return 1
    if args.validate:
        print(f"{args.path}: OK ({len(lines) - 1} spans)")
        return 0
    print(render_trace_tree(parse_trace(lines)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro-boundary",
        description="Boundary detection in 3D wireless networks (ICDCS 2010 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a network JSON")
    _add_deployment_args(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("detect", help="detect boundary nodes")
    p.add_argument("--network", required=True)
    p.add_argument("--error", type=float, default=0.0)
    p.add_argument("--epsilon", type=float, default=1e-3)
    p.add_argument("--theta", type=int, default=20)
    p.add_argument("--ttl", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes for MDS frame construction (deterministic for any N)",
    )
    p.add_argument(
        "--localization",
        choices=LOCALIZATION_MODES,
        default="auto",
        help="coordinate source for UBF (auto: true under zero error, else mds)",
    )
    p.add_argument(
        "--engine",
        choices=ENGINES,
        default=DEFAULT_ENGINE,
        help="MDS frame-construction engine (sparse uses native kernels "
        "where available; pernode is the slow oracle)",
    )
    p.add_argument("--out", default=None)
    _add_trace_arg(p)
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("surface", help="build boundary meshes")
    p.add_argument("--network", required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--k", type=int, default=4)
    p.add_argument("--out-prefix", default=None)
    p.set_defaults(func=cmd_surface)

    p = sub.add_parser("scenario", help="run one evaluation scenario")
    _add_deployment_args(p)
    p.add_argument("--error", type=float, default=0.0)
    p.add_argument("--epsilon", type=float, default=1e-3)
    p.add_argument("--theta", type=int, default=20)
    p.add_argument("--ttl", type=int, default=3)
    p.add_argument("--k", type=int, default=4)
    p.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes for MDS frame construction (deterministic for any N)",
    )
    p.add_argument("--svg", default=None, help="also render the result to SVG")
    p.set_defaults(func=cmd_scenario)

    p = sub.add_parser("sweep", help="run the error sweep tables")
    _add_deployment_args(p)
    p.add_argument("--levels", default="0,0.1,0.2,0.3,0.4,0.5")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("analyze", help="report detected holes")
    p.add_argument("--network", required=True)
    p.add_argument("--result", required=True)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser(
        "bench",
        help="time pipeline stages, write BENCH_<stage>.json, gate regressions",
    )
    p.add_argument(
        "--stages",
        default=None,
        help="comma-separated subset of localization,ubf,iff,grouping,mesh,"
        "e2e (default: all but e2e)",
    )
    p.add_argument("--scenario-id", default="ubf_2k", help="pinned bench scenario")
    p.add_argument("--repeat", type=int, default=5, help="median-of-k repetitions")
    p.add_argument(
        "--skip-naive",
        action="store_true",
        help="skip timing the naive oracle (faster; omits the speedup gate)",
    )
    p.add_argument("--out-dir", default=None, help="write BENCH_<stage>.json here")
    p.add_argument(
        "--check-regression",
        action="store_true",
        help="compare against the committed baseline; nonzero exit on regression",
    )
    p.add_argument(
        "--baseline-dir",
        default="benchmarks/baselines",
        help="directory holding the committed BENCH_<stage>.json baselines",
    )
    p.add_argument(
        "--oracle",
        action="store_true",
        help="run the pernode oracle over every node instead of the pinned "
        "subsample (slow; full differential coverage)",
    )
    p.add_argument("--time-factor", type=float, default=3.0)
    p.add_argument("--counter-rtol", type=float, default=0.02)
    p.add_argument("--min-speedup", type=float, default=2.0)
    p.add_argument(
        "--min-engine-speedup",
        type=float,
        default=3.0,
        help="required engine-over-pernode localization speedup",
    )
    p.add_argument(
        "--rss-factor",
        type=float,
        default=2.0,
        help="allowed peak-RSS growth over the baseline artifact",
    )
    _add_trace_arg(p)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser(
        "campaign",
        help="memoized, resumable experiment campaigns (see docs/CAMPAIGNS.md)",
    )
    campaign_sub = p.add_subparsers(dest="campaign_command", required=True)
    _add_campaign_commands(campaign_sub)

    p = sub.add_parser(
        "trace",
        help="validate / pretty-print a JSONL execution trace",
    )
    p.add_argument("path", help="trace file written by --trace")
    p.add_argument(
        "--validate",
        action="store_true",
        help="schema-check only; exit 1 with the error list when invalid",
    )
    p.set_defaults(func=cmd_trace)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
