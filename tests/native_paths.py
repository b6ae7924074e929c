"""Run one test case on the native path and on the compiler-less fallback.

``load_kernels()`` picks the path inside every production entry point, so
a case parametrized over :data:`PATHS` and run under :func:`on_path`
checks both paths in one pytest run.  Under ``REPRO_NATIVE=0`` (or with
no C compiler) the native cases skip and the fallback cases still run.
"""

from __future__ import annotations

import contextlib
from unittest import mock

import pytest

from repro.geometry import native
from repro.geometry.native import load_kernels

PATHS = (
    pytest.param(
        "native",
        marks=pytest.mark.skipif(
            load_kernels() is None, reason="no C compiler / native kernels disabled"
        ),
    ),
    "fallback",
)


@contextlib.contextmanager
def on_path(path: str):
    """Make ``load_kernels()`` return the kernels (``"native"``) or None
    (``"fallback"``) for the duration of the block."""
    if path == "native":
        yield
        return
    with mock.patch.object(native, "_CACHED", (True, None)):
        yield
