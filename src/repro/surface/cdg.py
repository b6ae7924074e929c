"""Step II: Combinatorial Delaunay Graph (CDG).

Each non-landmark boundary node checks whether any of its one-hop boundary
neighbors is associated with a different landmark; if so, the two landmarks
are *neighboring* and an edge between them enters the CDG -- the dual of
the combinatorial Voronoi cells from Step I.  The CDG is generally not
planar (Fig. 1(d)); Step III prunes it into the planar CDM.
"""

from __future__ import annotations

from typing import Dict, Set

import numpy as np

from repro.surface.hops import GroupHops
from repro.surface.mesh import Edge


def build_cdg(hops: GroupHops, cells: Dict[int, int]) -> Set[Edge]:
    """Landmark adjacency from touching Voronoi cells.

    Parameters
    ----------
    hops:
        Hop rows and induced subgraph of the boundary group under
        construction.
    cells:
        Node -> landmark association from Step I.

    Returns
    -------
    Set of canonical landmark edges.

    Notes
    -----
    Locality: the test at each node inspects only its one-hop neighbors'
    cell labels, one beacon round in a real deployment.
    """
    columns = hops.columns(np.fromiter(cells, dtype=np.int64, count=len(cells)))
    owners = np.fromiter(cells.values(), dtype=np.int64, count=len(cells))
    keep = columns >= 0
    labels = np.full(hops.nodes.size, -1, dtype=np.int64)
    labels[columns[keep]] = owners[keep]
    own = labels[np.repeat(np.arange(hops.nodes.size), np.diff(hops.indptr))]
    other = labels[hops.indices]
    touching = (own >= 0) & (other >= 0) & (own != other)
    pairs, first = np.unique(
        np.stack([np.minimum(own, other), np.maximum(own, other)], axis=1)[touching],
        axis=0,
        return_index=True,
    )
    # Insert in first-seen (node, neighbour) order, as a per-node scan
    # would, so the set's iteration order does not depend on this pass.
    return {(u, v) for u, v in pairs[np.argsort(first)].tolist()}
