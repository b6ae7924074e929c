"""Low-level uniform samplers shared by the shape implementations."""

from __future__ import annotations

import numpy as np


def sample_unit_sphere(n: int, rng: np.random.Generator) -> np.ndarray:
    """``(n, 3)`` points uniform on the unit sphere (Gaussian projection)."""
    if n <= 0:
        return np.empty((0, 3))
    vecs = rng.normal(size=(n, 3))
    norms = np.linalg.norm(vecs, axis=1, keepdims=True)
    # Degenerate all-zero draws are astronomically unlikely; regenerate them
    # rather than dividing by zero.
    bad = norms[:, 0] < 1e-12
    while np.any(bad):
        vecs[bad] = rng.normal(size=(int(bad.sum()), 3))
        norms = np.linalg.norm(vecs, axis=1, keepdims=True)
        bad = norms[:, 0] < 1e-12
    return vecs / norms


def multinomial_split(n: int, weights, rng: np.random.Generator) -> np.ndarray:
    """Randomly split ``n`` draws across components proportionally to ``weights``.

    Used to allocate surface samples across the faces/components of a
    composite boundary so the overall sample stays uniform by area.
    """
    w = np.asarray(weights, dtype=float)
    if np.any(w < 0) or w.sum() <= 0:
        raise ValueError("weights must be non-negative with positive sum")
    return rng.multinomial(n, w / w.sum())
