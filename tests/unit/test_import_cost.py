"""Importing the surface pipeline and the service worker stays cheap.

``scipy.sparse`` (and its ``csgraph``) are imported inside the functions
that use them.  A module-level import would land in every entry point's
start-up time, e.g. the benchmark's ``setup_s``, which imports both
modules before it reads the clock.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"


def test_pipeline_and_worker_import_without_scipy_sparse():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    probe = (
        "import sys\n"
        "import repro.surface.pipeline, repro.service.worker\n"
        "print(sorted(m for m in ('scipy.sparse', 'scipy.sparse.csgraph')"
        " if m in sys.modules))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True,
        check=True,
    )
    assert done.stdout.strip() == "[]"
