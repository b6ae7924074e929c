"""Importing the surface pipeline and the service worker stays cheap,
and the detection and service paths run without scipy.

``scipy.sparse`` (and its ``csgraph``) are imported inside the functions
that use them.  A module-level import would land in every entry point's
start-up time, e.g. the benchmark's ``setup_s``, which imports both
modules before it reads the clock.  Generating a network, which
``setup_s`` also times, imports neither.

With native kernels, ``detect()`` in MDS mode, the surface build and a
whole service job import no scipy module at all: the eigensolve calls
LAPACK's ``dsyevr`` from a C loop and the surface hop rows come from a
native BFS.  A fresh ``scipy.linalg`` import alone costs tens of MiB of
RSS, which every service worker would otherwise carry.

The package also imports no third-party module beyond the ones
``pyproject.toml`` declares, and declares none it does not import.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.geometry.native import lapack_dsyevr, load_kernels

SRC = Path(__file__).resolve().parents[2] / "src"


def _modules_after(code: str, names: str) -> str:
    """The sorted loaded module names that ``names`` (a Python expression
    filtering ``m``) keeps, after running ``code`` in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    probe = (
        "import sys\n"
        f"{code}\n"
        f"print(sorted(m for m in list(sys.modules) if {names}))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True,
        check=True,
    )
    return done.stdout.strip().splitlines()[-1]


def _sparse_modules_after(code: str) -> str:
    """The ``scipy.sparse`` modules loaded after running ``code``."""
    return _modules_after(code, "m in ('scipy.sparse', 'scipy.sparse.csgraph')")


def _scipy_modules_after(code: str) -> str:
    """Every ``scipy`` module loaded after running ``code``."""
    return _modules_after(code, "m == 'scipy' or m.startswith('scipy.')")


def test_pipeline_and_worker_import_without_scipy_sparse():
    assert _sparse_modules_after(
        "import repro.surface.pipeline, repro.service.worker"
    ) == "[]"


def test_generate_network_runs_without_scipy_sparse():
    # The generator's connectivity check runs on the native BFS or the
    # deque BFS, never on scipy.sparse.csgraph.
    assert _sparse_modules_after(
        "from repro.network.generator import DeploymentConfig, generate_network\n"
        "from repro.shapes.library import scenario_by_name\n"
        "net = generate_network(scenario_by_name('sphere'), DeploymentConfig("
        "n_surface=150, n_interior=250, target_degree=20.0, seed=3))\n"
        "assert net.graph.is_connected()"
    ) == "[]"


needs_native = pytest.mark.skipif(
    load_kernels() is None or lapack_dsyevr() is None,
    reason="no native kernels or no dsyevr symbol",
)


@needs_native
def test_noisy_detect_and_surface_run_without_scipy():
    assert _scipy_modules_after(
        "import numpy as np\n"
        "from repro.core.config import DetectorConfig\n"
        "from repro.core.pipeline import BoundaryDetector\n"
        "from repro.network.generator import DeploymentConfig, generate_network\n"
        "from repro.network.measurement import UniformAbsoluteError\n"
        "from repro.shapes.library import scenario_by_name\n"
        "from repro.surface.pipeline import SurfaceBuilder, SurfaceConfig\n"
        "net = generate_network(scenario_by_name('sphere'), DeploymentConfig("
        "n_surface=150, n_interior=250, target_degree=18.0, seed=3))\n"
        "config = DetectorConfig(error_model=UniformAbsoluteError(0.3))\n"
        "result = BoundaryDetector(config).detect(net, rng=np.random.default_rng(3))\n"
        "assert result.groups\n"
        "meshes = SurfaceBuilder(SurfaceConfig()).build(net.graph, result.groups)\n"
        "assert meshes and meshes[0].triangles()"
    ) == "[]"


@needs_native
def test_service_job_runs_without_scipy(tmp_path):
    assert _scipy_modules_after(
        "from repro.service.jobstore import JobSpec, JobStore\n"
        "from repro.service.worker import Worker\n"
        f"store = JobStore({str(tmp_path)!r})\n"
        "store.submit(JobSpec(scenario='one_hole', n_surface=120, n_interior=200,"
        " target_degree=16.0, seed=5, error=0.2))\n"
        "record = store.claim_next('w0', 30.0)\n"
        "done = Worker(store, 'w0').run_one(record)\n"
        "assert done.state == 'done' and done.result['surface']['n_meshes'], done"
    ) == "[]"


def test_third_party_imports_match_declared_dependencies():
    tomllib = pytest.importorskip("tomllib")
    pyproject = tomllib.loads((SRC.parent / "pyproject.toml").read_text())
    declared = {
        re.split(r"[<>=!~\[; ]", req, maxsplit=1)[0]
        for req in pyproject["project"]["dependencies"]
    }
    imported = set()
    for path in (SRC / "repro").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            imported.update(name.split(".")[0] for name in names)
    third_party = imported - set(sys.stdlib_module_names) - {"repro"}
    assert third_party == declared
