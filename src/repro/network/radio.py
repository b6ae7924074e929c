"""Radio link model for quasi-unit-disk deployments.

Definition 1 of the paper assumes only "an arbitrary radio transmission
model with a maximum radio transmission range of 1".  The generator
defaults to unit-disk connectivity (link iff distance <= 1), which
:class:`~repro.network.graph.NetworkGraph` builds directly from positions.
Setting ``DeploymentConfig.quasi_udg_alpha`` thins that graph to the
standard quasi-unit-disk model (quasi-UDG) here: links are certain up to
``alpha``, impossible beyond 1, and exist with a distance-interpolated
probability in between -- the usual abstraction for real radios' gray
zone.  Link decisions are symmetric (one draw per pair) and deterministic
given the RNG seed; ``alpha = 1`` is unit-disk connectivity and draws
nothing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.network.graph import NetworkGraph


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


def quasi_udg_graph(
    graph: NetworkGraph,
    model: QuasiUnitDiskModel,
    rng: np.random.Generator,
) -> NetworkGraph:
    """The links of a unit-ball ``graph`` that survive a quasi-UDG draw.

    Candidate pairs are the unit-ball graph's edges, the farthest any link
    can reach, drawn once each in :meth:`NetworkGraph.edge_array` order so
    the decision is symmetric.  The kept links are a mask over the graph's
    CSR: its upper-triangle entries list the edges in that same order, and
    its lower-triangle entries list them ordered by ``(v, u)``.
    """
    edges = graph.edge_array()
    positions = graph.positions
    dists = np.linalg.norm(positions[edges[:, 0]] - positions[edges[:, 1]], axis=1)
    link = model.link_mask(dists, rng)
    indptr, indices = graph.csr()
    heads = np.repeat(np.arange(graph.n_nodes), np.diff(indptr))
    upper = heads < indices
    keep = np.empty(indices.size, dtype=bool)
    keep[upper] = link
    keep[~upper] = link[np.argsort(edges[:, 1], kind="stable")]
    new_indptr = np.zeros_like(indptr)
    np.cumsum(np.bincount(heads[keep], minlength=graph.n_nodes), out=new_indptr[1:])
    return NetworkGraph.from_csr(
        positions, graph.radio_range, new_indptr, indices[keep]
    )
