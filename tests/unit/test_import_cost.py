"""Importing the surface pipeline and the service worker stays cheap.

``scipy.sparse`` (and its ``csgraph``) are imported inside the functions
that use them.  A module-level import would land in every entry point's
start-up time, e.g. the benchmark's ``setup_s``, which imports both
modules before it reads the clock.  Generating a network, which
``setup_s`` also times, imports neither.

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

SRC = Path(__file__).resolve().parents[2] / "src"


def _sparse_modules_after(code: str) -> str:
    """The ``scipy.sparse`` modules loaded after running ``code`` in a
    fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    probe = (
        "import sys\n"
        f"{code}\n"
        "print(sorted(m for m in ('scipy.sparse', 'scipy.sparse.csgraph')"
        " if m in sys.modules))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True,
        check=True,
    )
    return done.stdout.strip().splitlines()[-1]


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
