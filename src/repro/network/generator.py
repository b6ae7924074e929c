"""Network deployment: from a 3D region to a connected unit-ball graph.

Follows the paper's simulation setup (Sec. IV-A):

1. sample ground-truth boundary nodes uniformly on the region's surface;
2. sample an interior cloud uniformly in its volume;
3. choose the radio range to hit a target average nodal degree
   (the paper's networks average ~18.5, ranging 5..45 per node);
4. rescale all positions so the radio range becomes exactly 1
   (Definition 1), and connect nodes within range.

If the sampled graph is not connected, the generator retries with a denser
deployment (the paper only considers well-connected networks,
Definition 3); as a last resort it keeps the giant component.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from repro.network.graph import NetworkGraph
from repro.shapes.base import Shape3D


@dataclass(frozen=True)
class DeploymentConfig:
    """Parameters of a simulated deployment.

    Attributes
    ----------
    n_surface:
        Number of ground-truth boundary nodes sampled on the region surface.
    n_interior:
        Number of interior nodes sampled in the region volume.
    target_degree:
        Desired average nodal degree; sets the radio range via the uniform
        density estimate ``degree ~= rho * (4/3) * pi * R^3``.
    seed:
        RNG seed; the full deployment is deterministic given the seed.
    connectivity_retries:
        How many densification attempts to make if the graph comes out
        disconnected (each retry increases the target degree by 20%).
    keep_giant_component:
        After exhausting retries, keep the largest connected component
        instead of raising.
    quasi_udg_alpha:
        When set, links follow the quasi-unit-disk model with this inner
        radius (see :mod:`repro.network.radio`) instead of the pure
        unit-disk model -- Definition 1 allows "an arbitrary radio
        transmission model".
    """

    n_surface: int = 600
    n_interior: int = 1400
    target_degree: float = 18.5
    seed: int = 0
    connectivity_retries: int = 3
    keep_giant_component: bool = True
    quasi_udg_alpha: Optional[float] = None


@dataclass
class Network:
    """A deployed network plus its ground truth.

    Attributes
    ----------
    graph:
        Connectivity and positions (radio range normalized to 1).
    truth_boundary:
        Boolean array; True for nodes sampled on the region surface, the
        ground truth the evaluation compares detections against.
    scenario:
        Human-readable tag of the generating scenario.
    scale:
        Factor by which original shape coordinates were multiplied to
        normalize the radio range (positions = shape coords * scale).
    config:
        The deployment configuration that produced this network.
    """

    graph: NetworkGraph
    truth_boundary: np.ndarray
    scenario: str = "custom"
    scale: float = 1.0
    config: Optional[DeploymentConfig] = None

    @property
    def n_nodes(self) -> int:
        """Total number of nodes."""
        return self.graph.n_nodes

    @property
    def truth_boundary_set(self) -> set:
        """Ground-truth boundary node IDs as a set."""
        return set(np.flatnonzero(self.truth_boundary).tolist())

    def summary(self) -> str:
        """One-line description used by examples and the CLI."""
        degrees = self.graph.degrees()
        return (
            f"{self.scenario}: {self.n_nodes} nodes "
            f"({int(self.truth_boundary.sum())} on boundary), "
            f"avg degree {degrees.mean():.1f} "
            f"(min {degrees.min() if degrees.size else 0}, "
            f"max {degrees.max() if degrees.size else 0})"
        )


def _radio_range_for_degree(
    shape: Shape3D, n_nodes: int, target_degree: float, rng: np.random.Generator
) -> float:
    """Radio range achieving ``target_degree`` under uniform density.

    Uses the exact region volume when the shape exposes one, otherwise a
    Monte-Carlo estimate.  The classic unit-ball-graph estimate
    ``degree = rho * (4/3) pi R^3`` ignores boundary truncation, so real
    average degrees land somewhat below the target; callers that need a
    precise degree can iterate, and the evaluation only requires "dense
    enough", matching the paper's 5..45 degree spread.
    """
    volume = getattr(shape, "volume", None)
    if volume is None:
        volume = shape.volume_estimate(rng)
    volume = float(volume)
    if volume <= 0:
        raise ValueError("shape has non-positive volume")
    density = n_nodes / volume
    return (3.0 * target_degree / (4.0 * np.pi * density)) ** (1.0 / 3.0)


def generate_network(
    shape: Shape3D,
    config: DeploymentConfig = DeploymentConfig(),
    *,
    scenario: str = "custom",
) -> Network:
    """Deploy a network in ``shape`` per the paper's simulation setup.

    Returns a :class:`Network` whose radio range is normalized to 1 and
    whose ``truth_boundary`` flags mark the surface-sampled nodes.

    Raises
    ------
    RuntimeError
        If the deployment stays disconnected after all retries and
        ``keep_giant_component`` is disabled.
    """
    attempt_config = config
    last_network: Optional[Network] = None
    for attempt in range(config.connectivity_retries + 1):
        rng = np.random.default_rng(attempt_config.seed + 7919 * attempt)
        surface_pts = shape.sample_surface(attempt_config.n_surface, rng)
        interior_pts = shape.sample_interior(attempt_config.n_interior, rng)
        positions = np.vstack([surface_pts, interior_pts])
        truth = np.zeros(positions.shape[0], dtype=bool)
        truth[: surface_pts.shape[0]] = True

        radio = _radio_range_for_degree(
            shape, positions.shape[0], attempt_config.target_degree, rng
        )
        scale = 1.0 / radio
        scaled = positions * scale
        graph = NetworkGraph(scaled, radio_range=1.0)
        if attempt_config.quasi_udg_alpha is not None:
            from repro.network.radio import QuasiUnitDiskModel, quasi_udg_graph

            model = QuasiUnitDiskModel(attempt_config.quasi_udg_alpha)
            graph = quasi_udg_graph(graph, model, rng)
        network = Network(
            graph=graph,
            truth_boundary=truth,
            scenario=scenario,
            scale=scale,
            config=attempt_config,
        )
        if graph.is_connected():
            return network
        last_network = network
        attempt_config = replace(
            attempt_config, target_degree=attempt_config.target_degree * 1.2
        )

    if config.keep_giant_component and last_network is not None:
        return _restrict_to_giant_component(last_network)
    raise RuntimeError(
        "could not generate a connected network; increase target_degree or "
        "node counts"
    )


def _restrict_to_giant_component(network: Network) -> Network:
    """Relabel the network onto its largest connected component.

    The component's induced subgraph is cut out of the existing CSR, so the
    links the deployment's radio model drew are kept exactly (a quasi-UDG
    network gains no gray-zone links).  The relabel is monotone, so rows
    stay sorted.
    """
    graph = network.graph
    components = graph.connected_components()
    keep = np.array(max(components, key=len), dtype=np.int64)
    indptr, indices = graph.csr()
    starts = indptr[keep]
    sizes = indptr[keep + 1] - starts
    new_indptr = np.zeros(keep.size + 1, dtype=np.int64)
    np.cumsum(sizes, out=new_indptr[1:])
    rows = np.repeat(starts - new_indptr[:-1], sizes) + np.arange(new_indptr[-1])
    # A component is closed under adjacency, so every neighbor of a kept
    # node is in the sorted ``keep`` and its new id is its rank there.
    new_indices = np.searchsorted(keep, indices[rows])
    return Network(
        graph=NetworkGraph.from_csr(
            graph.positions[keep], graph.radio_range, new_indptr, new_indices
        ),
        truth_boundary=network.truth_boundary[keep],
        scenario=network.scenario + "+giant",
        scale=network.scale,
        config=network.config,
    )
