"""The primitive solid: a sphere (Fig. 10's deployment and the hole model of Figs. 7-8)."""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.shapes.base import Shape3D
from repro.shapes.sampling import sample_unit_sphere


class Sphere(Shape3D):
    """A solid ball of given center and radius (Fig. 10's scenario shape)."""

    def __init__(self, center=(0.0, 0.0, 0.0), radius: float = 1.0):
        if radius <= 0:
            raise ValueError("radius must be positive")
        self.center = np.asarray(center, dtype=float)
        self.radius = float(radius)

    def __repr__(self) -> str:
        return f"Sphere(center={self.center.tolist()}, radius={self.radius})"

    def contains(self, points) -> np.ndarray:
        pts = self._as_points(points)
        diff = pts - self.center
        return np.einsum("ij,ij->i", diff, diff) <= self.radius ** 2

    def sample_surface(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return self.center + self.radius * sample_unit_sphere(n, rng)

    def sample_interior(self, n: int, rng: np.random.Generator, **_) -> np.ndarray:
        # Direct sampling beats rejection: uniform direction x cube-root radius.
        if n <= 0:
            return np.empty((0, 3))
        directions = sample_unit_sphere(n, rng)
        radii = self.radius * np.cbrt(rng.uniform(0.0, 1.0, size=n))
        return self.center + directions * radii[:, None]

    @property
    def bounding_box(self) -> Tuple[np.ndarray, np.ndarray]:
        r = np.full(3, self.radius)
        return self.center - r, self.center + r

    @property
    def surface_area(self) -> float:
        return 4.0 * np.pi * self.radius ** 2

    @property
    def volume(self) -> float:
        """Exact volume (used to bypass Monte-Carlo when available)."""
        return 4.0 / 3.0 * np.pi * self.radius ** 3
