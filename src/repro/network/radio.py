"""Radio link model for quasi-unit-disk deployments.

Definition 1 of the paper assumes only "an arbitrary radio transmission
model with a maximum radio transmission range of 1".  The generator
defaults to unit-disk connectivity (link iff distance <= 1), which
:class:`~repro.network.graph.NetworkGraph` builds directly from positions.
Setting ``DeploymentConfig.quasi_udg_alpha`` switches it to the standard
quasi-unit-disk model (quasi-UDG) here: links are certain up to ``alpha``,
impossible beyond 1, and exist with a distance-interpolated probability in
between -- the usual abstraction for real radios' gray zone.  Link
decisions are symmetric (one draw per pair) and deterministic given the
RNG seed; ``alpha = 1`` is unit-disk connectivity and draws nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.geometry.spatial_index import UniformGridIndex, auto_cell_size


@dataclass(frozen=True)
class QuasiUnitDiskModel:
    """Quasi-UDG: certain links below ``alpha``, linear gray zone to 1.

    Parameters
    ----------
    alpha:
        Inner radius in ``(0, 1]``; pairs closer than this always link.
        ``alpha = 1`` degenerates to unit-disk connectivity.
    """

    alpha: float = 0.75

    def __post_init__(self):
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")

    def link_mask(self, distances: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Boolean mask of which pair distances become links."""
        d = np.asarray(distances, dtype=float)
        if self.alpha >= 1.0:
            return d <= 1.0
        probability = np.clip((1.0 - d) / (1.0 - self.alpha), 0.0, 1.0)
        probability[d <= self.alpha] = 1.0
        return rng.uniform(size=d.shape) < probability


def build_adjacency(
    positions: np.ndarray,
    model: QuasiUnitDiskModel,
    rng: np.random.Generator,
) -> List[List[int]]:
    """Adjacency lists under a quasi-UDG model (one symmetric draw per pair).

    Candidate pairs are those within the normalized radio range 1, the
    farthest any link can reach.
    """
    n = positions.shape[0]
    adjacency: List[List[int]] = [[] for _ in range(n)]
    if n == 0:
        return adjacency
    index = UniformGridIndex(positions, cell_size=auto_cell_size(1.0))
    pairs = index.neighbor_pairs_array(1.0)
    if not pairs.size:
        return adjacency
    dists = np.linalg.norm(positions[pairs[:, 0]] - positions[pairs[:, 1]], axis=1)
    mask = model.link_mask(dists, rng)
    for u, v in pairs[mask].tolist():
        adjacency[u].append(v)
        adjacency[v].append(u)
    return adjacency
