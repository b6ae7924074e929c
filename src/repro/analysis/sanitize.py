"""``repro-san`` -- dynamic determinism sanitizer (byte-diff harness).

The static rules (DET007/PAR008/FLT009/TRC010) catch nondeterminism the
AST can prove; this module catches the rest empirically.  It re-runs one
pinned, seeded scenario end to end -- ``generate`` -> ``detect`` ->
``surface`` -- in a fresh subprocess per *cell* of a small matrix:

* ``PYTHONHASHSEED`` in ``{0, 1, random}`` -- flushes out hash-order
  leaks (set iteration, dict displays built from sets), which only vary
  *between* interpreter runs;
* ``--workers`` in ``{1, 2, 4}`` -- flushes out sharding and
  pool-scheduling leaks (shards run on pool threads);
* ``--engines`` (optional third axis) -- replays the matrix per
  localization engine.  Engines legitimately differ at the documented
  1e-9 coordinate tolerance, so cells are byte-compared only against the
  first cell *of the same engine*; the axis checks that each engine is
  individually deterministic across hash seeds and worker counts.  Pair
  it with ``--error`` > 0, otherwise localization resolves to ``true``
  and no engine runs at all.

Every artifact the pipeline serializes -- the network JSON, the detection
result, each exported mesh OBJ, and the JSONL execution trace (recorded
under the deterministic ``--trace-clock tick`` so timestamps are
replayable) -- must be byte-identical across all cells.  Traces are
normalized first by dropping the few span attributes that *name* the cell
(currently ``workers``): those record run identity, not run behavior.

On divergence the harness reports the first differing artifact, line, and
-- for JSON/JSONL lines -- the first differing field inside the enclosing
span/document, then exits 1.  Subprocess or usage failures exit 2.

Subprocesses are required because ``PYTHONHASHSEED`` is read once at
interpreter start; no amount of in-process re-seeding can vary it.

Usage::

    repro-san                          # pinned 2k scenario, 3x3 matrix
    repro-san --surface-nodes 80 --interior-nodes 80   # quick local run
    repro-san --hash-seeds 0,1 --workers 1,2           # smaller matrix
    repro-san --self-test              # prove the diff path detects drift

Also reachable as ``python -m repro.analysis.sanitize``.  Stdlib-only by
design, like the rest of :mod:`repro.analysis`.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: Hash-seed values for the default matrix.  "random" asks CPython for a
#: fresh salt, so any hash-order leak diverges from the pinned cells.
DEFAULT_HASH_SEEDS = ("0", "1", "random")

#: Worker counts for the default matrix.
DEFAULT_WORKERS = (1, 2, 4)

#: Localization engines for the default matrix.  A single entry keeps the
#: default run a two-axis matrix; pass ``--engines sparse,pernode`` (with
#: ``--error`` > 0) to replay it once per engine.
DEFAULT_ENGINES = ("sparse",)

#: Engines ``repro detect --engine`` accepts (hardcoded: this module is
#: stdlib-only by design and must not import repro.network).
VALID_ENGINES = ("sparse", "pernode")

#: Span attributes that identify the run rather than describe behavior;
#: stripped from traces before diffing (see module docstring).  Dotted
#: entries address nested dicts (the ``detect`` span records its whole
#: config, worker count included).
RUN_IDENTITY_ATTRS = (
    "workers",
    "config.workers",
)

#: Serialization settings matching repro.observability.export, so a
#: normalized trace that drops nothing round-trips byte-identically.
_JSON_SEPARATORS = (", ", ": ")


class CellError(RuntimeError):
    """A cell's subprocess failed; the matrix cannot be compared."""


@dataclasses.dataclass(frozen=True)
class Cell:
    """One point of the sanitizer matrix."""

    hash_seed: str
    workers: int
    engine: str = "sparse"

    @property
    def label(self) -> str:
        return (
            f"hashseed={self.hash_seed},workers={self.workers},"
            f"engine={self.engine}"
        )

    @property
    def dirname(self) -> str:
        return f"cell_hs{self.hash_seed}_w{self.workers}_{self.engine}"


@dataclasses.dataclass(frozen=True)
class ScenarioSpec:
    """The pinned scenario every cell replays."""

    scenario: str = "sphere"
    surface_nodes: int = 600
    interior_nodes: int = 1400
    degree: float = 25.0
    seed: int = 0
    error: float = 0.0


def build_cells(
    hash_seeds: Sequence[str] = DEFAULT_HASH_SEEDS,
    workers: Sequence[int] = DEFAULT_WORKERS,
    engines: Sequence[str] = DEFAULT_ENGINES,
) -> List[Cell]:
    """The full matrix in deterministic (engine-major) order.

    Engine-major ordering keeps each engine's cells contiguous, so the
    per-engine baseline (the group's first cell) is always the group's
    ``hash_seed[0] x workers[0]`` corner.
    """
    return [Cell(hs, w, e) for e in engines for hs in hash_seeds for w in workers]


def _src_root() -> Path:
    # sanitize.py lives at src/repro/analysis/sanitize.py; subprocesses
    # must import the same tree regardless of the caller's cwd.
    return Path(__file__).resolve().parents[2]


def _cell_env(cell: Cell) -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = cell.hash_seed
    existing = env.get("PYTHONPATH")
    src = str(_src_root())
    env["PYTHONPATH"] = f"{src}{os.pathsep}{existing}" if existing else src
    return env


def run_cell(spec: ScenarioSpec, cell: Cell, cell_dir: Path) -> None:
    """Run generate -> detect -> surface for one cell.

    All artifact paths are relative to ``cell_dir`` so recorded span
    attributes (e.g. the network path) are identical across cells.
    """
    steps = [
        [
            "generate",
            "--scenario", spec.scenario,
            "--surface-nodes", str(spec.surface_nodes),
            "--interior-nodes", str(spec.interior_nodes),
            "--degree", str(spec.degree),
            "--seed", str(spec.seed),
            "--out", "net.json",
        ],
        [
            "detect",
            "--network", "net.json",
            "--seed", str(spec.seed),
            "--error", str(spec.error),
            "--engine", cell.engine,
            "--workers", str(cell.workers),
            "--out", "result.json",
            "--trace", "trace.jsonl",
            "--trace-clock", "tick",
        ],
        [
            "surface",
            "--network", "net.json",
            "--result", "result.json",
            "--out-prefix", "mesh",
        ],
    ]
    env = _cell_env(cell)
    for step in steps:
        proc = subprocess.run(
            [sys.executable, "-m", "repro.cli"] + step,
            cwd=str(cell_dir),
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        if proc.returncode != 0:
            tail = proc.stderr.decode("utf-8", errors="replace").strip().splitlines()
            raise CellError(
                f"cell {cell.label}: '{step[0]}' exited "
                f"{proc.returncode}: {' | '.join(tail[-3:]) or '<no stderr>'}"
            )


def _pop_path(mapping: Dict[str, object], dotted: str) -> None:
    """Remove ``a.b.c`` from nested dicts; missing segments are a no-op."""
    parts = dotted.split(".")
    for part in parts[:-1]:
        nested = mapping.get(part)
        if not isinstance(nested, dict):
            return
        mapping = nested
    mapping.pop(parts[-1], None)


def normalize_trace(raw: bytes) -> bytes:
    """Strip run-identity span attributes; keep everything else verbatim.

    Re-serializes each line with the exporter's own sorted-key settings,
    so a trace with nothing to strip normalizes to its original bytes.
    """
    out_lines: List[str] = []
    for line in raw.decode("utf-8").splitlines():
        if not line.strip():
            continue
        doc = json.loads(line)
        attrs = doc.get("attrs")
        if isinstance(attrs, dict):
            for dotted in RUN_IDENTITY_ATTRS:
                _pop_path(attrs, dotted)
        out_lines.append(json.dumps(doc, sort_keys=True, separators=_JSON_SEPARATORS))
    return ("\n".join(out_lines) + "\n").encode("utf-8")


def collect_artifacts(cell_dir: Path) -> Dict[str, bytes]:
    """Read every comparable artifact a cell produced, traces normalized."""
    artifacts: Dict[str, bytes] = {}
    for name in ("net.json", "result.json"):
        path = cell_dir / name
        if path.exists():
            artifacts[name] = path.read_bytes()
    trace = cell_dir / "trace.jsonl"
    if trace.exists():
        artifacts["trace.jsonl"] = normalize_trace(trace.read_bytes())
    for mesh in sorted(cell_dir.glob("mesh_*.obj")):
        artifacts[mesh.name] = mesh.read_bytes()
    return artifacts


def _first_json_field_diff(base: object, other: object, path: str = "") -> Optional[str]:
    """Dotted path of the first differing field between two JSON values."""
    if type(base) is not type(other):
        return f"{path or '$'} (type {type(base).__name__} vs {type(other).__name__})"
    if isinstance(base, dict):
        for key in sorted(set(base) | set(other)):
            sub = f"{path}.{key}" if path else key
            if key not in base:
                return f"{sub} (missing in baseline)"
            if key not in other:
                return f"{sub} (missing in this cell)"
            found = _first_json_field_diff(base[key], other[key], sub)
            if found is not None:
                return found
        return None
    if isinstance(base, list):
        for i, (b, o) in enumerate(zip(base, other)):
            found = _first_json_field_diff(b, o, f"{path}[{i}]")
            if found is not None:
                return found
        if len(base) != len(other):
            return f"{path or '$'} (length {len(base)} vs {len(other)})"
        return None
    if base != other:
        return f"{path or '$'} ({base!r} vs {other!r})"
    return None


def _describe_line_diff(base_line: str, other_line: str) -> str:
    """Field-level description when both lines parse as JSON, else raw."""
    try:
        base_doc = json.loads(base_line)
        other_doc = json.loads(other_line)
    except ValueError:
        return f"baseline {base_line!r} vs {other_line!r}"
    where = ""
    if isinstance(base_doc, dict) and "name" in base_doc:
        where = f" in span '{base_doc['name']}'"
    field = _first_json_field_diff(base_doc, other_doc)
    return f"first divergent field{where}: {field}"


def first_divergence(name: str, base: bytes, other: bytes) -> Optional[str]:
    """Human-readable description of the first byte-level divergence."""
    if base == other:
        return None
    base_lines = base.decode("utf-8", errors="replace").splitlines()
    other_lines = other.decode("utf-8", errors="replace").splitlines()
    for i, (b, o) in enumerate(zip(base_lines, other_lines), start=1):
        if b != o:
            return f"{name}: line {i}: {_describe_line_diff(b, o)}"
    return (
        f"{name}: line {min(len(base_lines), len(other_lines)) + 1}: "
        f"baseline has {len(base_lines)} line(s), this cell {len(other_lines)}"
    )


Runner = Callable[[ScenarioSpec, Cell, Path], None]


def run_matrix(
    spec: ScenarioSpec,
    cells: Sequence[Cell],
    workdir: Path,
    *,
    runner: Runner = run_cell,
    progress: Callable[[str], None] = lambda line: None,
) -> Tuple[bool, List[str]]:
    """Run every cell and byte-diff artifacts against its engine baseline.

    Cells are compared against the first cell *with the same engine*:
    engines agree only to the documented 1e-9 coordinate tolerance, so a
    cross-engine byte-diff would report that tolerance as a divergence.
    Within one engine, every (hash seed, worker count) cell must be
    byte-identical.

    Returns ``(identical, report_lines)``; raises :class:`CellError` when
    a cell's subprocess fails (exit 2 territory -- nothing to compare).
    """
    if len(cells) < 2:
        raise ValueError("need at least two cells to compare")
    report: List[str] = []
    baselines: Dict[str, Tuple[Cell, Dict[str, bytes]]] = {}
    for index, cell in enumerate(cells):
        cell_dir = workdir / cell.dirname
        cell_dir.mkdir(parents=True, exist_ok=True)
        progress(f"[{index + 1}/{len(cells)}] {cell.label}")
        runner(spec, cell, cell_dir)
        artifacts = collect_artifacts(cell_dir)
        if not artifacts:
            raise CellError(f"cell {cell.label}: produced no artifacts")
        if cell.engine not in baselines:
            baselines[cell.engine] = (cell, artifacts)
            continue
        baseline_cell, baseline = baselines[cell.engine]
        for missing in sorted(set(baseline) - set(artifacts)):
            report.append(f"{missing}: missing in cell {cell.label}")
        for extra in sorted(set(artifacts) - set(baseline)):
            report.append(f"{extra}: only in cell {cell.label}")
        for name in sorted(set(baseline) & set(artifacts)):
            diff = first_divergence(name, baseline[name], artifacts[name])
            if diff is not None:
                report.append(f"cell {cell.label} vs {baseline_cell.label}: {diff}")
    return (not report), report


def _self_test_runner(spec: ScenarioSpec, cell: Cell, cell_dir: Path) -> None:
    """Deliberately nondeterministic runner: leaks the cell identity.

    Stands in for a pipeline with a worker-count leak, proving the diff
    path reports artifact, line, and field (no subprocesses involved).
    """
    doc = {"boundary": [1, 2, 3], "workers_leak": cell.workers}
    (cell_dir / "result.json").write_text(
        json.dumps(doc, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )


def _self_test(spec: ScenarioSpec, cells: Sequence[Cell], workdir: Path) -> int:
    ok, report = run_matrix(spec, cells, workdir, runner=_self_test_runner)
    if ok:
        print("self-test FAILED: injected divergence was not detected")
        return 1
    print("self-test OK: injected divergence detected:")
    for line in report:
        print(f"  {line}")
    return 0


def _parse_csv(value: str) -> List[str]:
    return [item.strip() for item in value.split(",") if item.strip()]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-san",
        description=(
            "byte-diff one pinned scenario across PYTHONHASHSEED and "
            "worker-count cells (see docs/OBSERVABILITY.md)"
        ),
    )
    parser.add_argument("--scenario", default="sphere")
    parser.add_argument("--surface-nodes", type=int, default=600)
    parser.add_argument("--interior-nodes", type=int, default=1400)
    parser.add_argument("--degree", type=float, default=25.0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--error",
        type=float,
        default=0.0,
        help="uniform absolute ranging error; > 0 makes detection run MDS "
        "localization, exercising the --engines axis (default: 0)",
    )
    parser.add_argument(
        "--engines",
        default=",".join(DEFAULT_ENGINES),
        help="comma-separated localization engines; each engine forms its "
        "own byte-diff group (default: sparse)",
    )
    parser.add_argument(
        "--hash-seeds",
        default=",".join(DEFAULT_HASH_SEEDS),
        help="comma-separated PYTHONHASHSEED values (default: 0,1,random)",
    )
    parser.add_argument(
        "--workers",
        default=",".join(str(w) for w in DEFAULT_WORKERS),
        help="comma-separated worker counts (default: 1,2,4)",
    )
    parser.add_argument(
        "--workdir",
        default=None,
        help="directory for per-cell artifacts (default: a temp dir, "
        "removed on success, kept on divergence)",
    )
    parser.add_argument(
        "--report",
        default=None,
        metavar="PATH",
        help="also write the divergence report here (CI artifact)",
    )
    parser.add_argument(
        "--self-test",
        action="store_true",
        help="run the diff path against an injected divergence and exit",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    spec = ScenarioSpec(
        scenario=args.scenario,
        surface_nodes=args.surface_nodes,
        interior_nodes=args.interior_nodes,
        degree=args.degree,
        seed=args.seed,
        error=args.error,
    )
    hash_seeds = _parse_csv(args.hash_seeds)
    for hs in hash_seeds:
        if hs != "random" and not hs.isdigit():
            print(f"error: invalid hash seed {hs!r}", file=sys.stderr)
            return 2
    try:
        workers = [int(w) for w in _parse_csv(args.workers)]
    except ValueError:
        print(f"error: invalid --workers {args.workers!r}", file=sys.stderr)
        return 2
    engines = _parse_csv(args.engines)
    for engine in engines:
        if engine not in VALID_ENGINES:
            print(f"error: invalid engine {engine!r}", file=sys.stderr)
            return 2
    cells = build_cells(hash_seeds, workers, engines)
    if len(cells) < 2:
        print("error: matrix needs at least two cells", file=sys.stderr)
        return 2

    own_workdir = args.workdir is None
    workdir = Path(
        tempfile.mkdtemp(prefix="repro-san-") if own_workdir else args.workdir
    )
    workdir.mkdir(parents=True, exist_ok=True)

    if args.self_test:
        code = _self_test(spec, cells, workdir)
        if own_workdir:
            shutil.rmtree(workdir, ignore_errors=True)
        return code

    try:
        ok, report = run_matrix(spec, cells, workdir, progress=print)
    except CellError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if ok:
        groups = len({cell.engine for cell in cells})
        group_note = f" in {groups} engine group(s)" if groups > 1 else ""
        print(
            f"repro-san: OK -- {len(cells)} cells byte-identical"
            f"{group_note} ({cells[0].label} is the baseline)"
        )
        if own_workdir:
            shutil.rmtree(workdir, ignore_errors=True)
        return 0

    print(f"repro-san: DIVERGENCE -- {len(report)} difference(s):")
    for line in report:
        print(f"  {line}")
    if args.report:
        Path(args.report).write_text("\n".join(report) + "\n", encoding="utf-8")
        print(f"wrote {args.report}")
    print(f"artifacts kept under {workdir}")
    return 1


if __name__ == "__main__":
    raise SystemExit(main())
