"""Evaluation harness: the metrics and experiment drivers behind Sec. IV.

* :mod:`repro.evaluation.metrics` -- found/correct/mistaken/missing
  statistics and the hop-distance distributions of Figs. 1(g-i)/11(a-c).
* :mod:`repro.evaluation.mesh_metrics` -- topological and geometric mesh
  quality (manifoldness, Euler characteristic, deviation from the true
  surface) behind Figs. 1(f)/1(j-l) and 6-10.
* :mod:`repro.evaluation.experiments` -- the experiment drivers each bench
  calls: error sweeps, the scenario suite, and the ablations.
* :mod:`repro.evaluation.campaign` -- declarative campaign specs, their
  cell cross-product, pure cell executors, and table aggregation; the
  runner lives in :mod:`repro.service.campaign` (see docs/CAMPAIGNS.md).
* :mod:`repro.evaluation.seeding` -- identity-derived RNG substreams that
  make every sweep cell a pure function of its own identity.
* :mod:`repro.evaluation.reporting` -- ASCII tables in the shape of the
  paper's figures.
* :mod:`repro.evaluation.bench` -- ``repro-bench``: stage wall-time +
  Theorem-1 counter benchmarking with ``BENCH_<stage>.json`` artifacts and
  a baseline regression gate; see ``docs/PERFORMANCE.md``.
"""

from repro.evaluation.bench import (
    BENCH_SCENARIOS,
    check_regression,
    render_bench_table,
    run_bench,
    write_artifacts,
)
from repro.evaluation.metrics import (
    DetectionStats,
    evaluate_detection,
    hop_distribution,
    mistaken_hop_distribution,
    missing_hop_distribution,
)
from repro.evaluation.campaign import (
    CampaignCell,
    CampaignSpec,
    execute_cell,
    expand,
    load_spec,
    render_campaign_tables,
)
from repro.evaluation.mesh_metrics import MeshQuality, evaluate_mesh
from repro.evaluation.seeding import (
    cell_rng,
    cell_substream,
    error_cell_identity,
)
from repro.evaluation.experiments import (
    ErrorSweepPoint,
    MeshErrorPoint,
    ScenarioResult,
    run_aggregate_sweep,
    run_ball_radius_ablation,
    run_collection_hops_ablation,
    run_error_cell,
    run_error_sweep,
    run_iff_ablation,
    run_landmark_k_ablation,
    run_mesh_error_sweep,
    run_scenario,
    run_ubf_complexity,
)
from repro.evaluation.reporting import format_table

__all__ = [
    "BENCH_SCENARIOS",
    "check_regression",
    "render_bench_table",
    "run_bench",
    "write_artifacts",
    "CampaignCell",
    "CampaignSpec",
    "execute_cell",
    "expand",
    "load_spec",
    "render_campaign_tables",
    "cell_rng",
    "cell_substream",
    "error_cell_identity",
    "run_error_cell",
    "DetectionStats",
    "evaluate_detection",
    "hop_distribution",
    "mistaken_hop_distribution",
    "missing_hop_distribution",
    "MeshQuality",
    "evaluate_mesh",
    "ErrorSweepPoint",
    "MeshErrorPoint",
    "ScenarioResult",
    "run_error_sweep",
    "run_aggregate_sweep",
    "run_mesh_error_sweep",
    "run_scenario",
    "run_ubf_complexity",
    "run_ball_radius_ablation",
    "run_iff_ablation",
    "run_landmark_k_ablation",
    "run_collection_hops_ablation",
    "format_table",
]
