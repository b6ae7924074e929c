"""Constructive solid geometry: a region with voids carved out.

The paper's "3D space network with internal holes" scenarios (Figs. 7 and 8)
are regions with one or two voids carved out; :class:`Difference` models
exactly that.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from repro.shapes.base import Shape3D
from repro.shapes.sampling import multinomial_split


class Difference(Shape3D):
    """``outer`` with one or more ``holes`` removed.

    The boundary of the resulting region is the outer boundary (excluding
    any part swallowed by a hole) plus the boundary of every hole that lies
    inside the outer shape.  Holes are expected to be strictly interior and
    mutually disjoint -- the standard configuration in the paper -- but the
    samplers stay correct under overlap by rejection-filtering.
    """

    def __init__(self, outer: Shape3D, holes: Sequence[Shape3D]):
        if not holes:
            raise ValueError("Difference requires at least one hole")
        self.outer = outer
        self.holes = list(holes)

    def __repr__(self) -> str:
        return f"Difference(outer={self.outer!r}, holes={self.holes!r})"

    def _in_any_hole(self, pts: np.ndarray) -> np.ndarray:
        mask = np.zeros(pts.shape[0], dtype=bool)
        for hole in self.holes:
            mask |= hole.contains(pts)
        return mask

    def contains(self, points) -> np.ndarray:
        pts = self._as_points(points)
        return self.outer.contains(pts) & ~self._in_any_hole(pts)

    def sample_surface(self, n: int, rng: np.random.Generator) -> np.ndarray:
        components = [self.outer] + self.holes
        areas = [c.surface_area for c in components]
        counts = multinomial_split(n, areas, rng)
        samples = []
        for idx, (component, count) in enumerate(zip(components, counts)):
            if count == 0:
                continue
            collected = []
            got = 0
            for _ in range(1000):
                pts = component.sample_surface(count * 2 + 8, rng)
                if idx == 0:
                    # Outer surface: keep points not swallowed by a hole.
                    keep = pts[~self._in_any_hole(pts)]
                else:
                    # Hole surface: keep points inside the outer shape.
                    keep = pts[self.outer.contains(pts)]
                collected.append(keep)
                got += keep.shape[0]
                if got >= count:
                    break
            else:
                raise RuntimeError(
                    "surface sampling did not converge; is a hole entirely "
                    "outside the outer shape?"
                )
            samples.append(np.vstack(collected)[:count])
        if not samples:
            return np.empty((0, 3))
        return np.vstack(samples)

    @property
    def bounding_box(self) -> Tuple[np.ndarray, np.ndarray]:
        return self.outer.bounding_box

    @property
    def surface_area(self) -> float:
        # Upper bound assuming strictly interior holes; exact in the
        # configurations this library ships.
        return self.outer.surface_area + sum(h.surface_area for h in self.holes)
