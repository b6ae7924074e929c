"""Smoke tests: every example script runs to completion.

Examples are executed in-process with reduced deployment sizes would be
intrusive, so they run as subprocesses with their shipped parameters; each
one is laptop-sized by construction.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
EXAMPLES_DIR = REPO_ROOT / "examples"
SRC_DIR = REPO_ROOT / "src"


def _child_env() -> dict:
    """Current environment with ``src`` prepended to PYTHONPATH.

    The examples import ``repro`` without being installed; the test
    process found it via its own PYTHONPATH, which subprocess children do
    not inherit augmented -- so build it explicitly.
    """
    env = dict(os.environ)
    existing = env.get("PYTHONPATH", "")
    env["PYTHONPATH"] = (
        f"{SRC_DIR}{os.pathsep}{existing}" if existing else str(SRC_DIR)
    )
    return env

EXAMPLES = [
    "quickstart.py",
    "underwater_survey.py",
    "pipe_inspection.py",
    "surface_tools_demo.py",
]


@pytest.mark.parametrize("script", EXAMPLES)
def test_example_runs(script, tmp_path):
    args = [sys.executable, str(EXAMPLES_DIR / script)]
    if script == "underwater_survey.py":
        args.append(str(tmp_path / "mesh.obj"))
    completed = subprocess.run(
        args,
        capture_output=True,
        text=True,
        timeout=1200,
        cwd=tmp_path,
        env=_child_env(),
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
    assert completed.stdout.strip(), "example produced no output"
