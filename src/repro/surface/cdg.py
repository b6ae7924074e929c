"""Step II: Combinatorial Delaunay Graph (CDG).

Each non-landmark boundary node checks whether any of its one-hop boundary
neighbors is associated with a different landmark; if so, the two landmarks
are *neighboring* and an edge between them enters the CDG -- the dual of
the combinatorial Voronoi cells from Step I.  The CDG is generally not
planar (Fig. 1(d)); Step III prunes it into the planar CDM.
"""

from __future__ import annotations

from typing import Dict, Set

from repro.surface.hops import GroupHops
from repro.surface.mesh import Edge, edge_key


def build_cdg(hops: GroupHops, cells: Dict[int, int]) -> Set[Edge]:
    """Landmark adjacency from touching Voronoi cells.

    Parameters
    ----------
    hops:
        Flood memo of the boundary group under construction.
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
    members = hops.members
    edges: Set[Edge] = set()
    for node in sorted(members):
        own = cells.get(node)
        if own is None:
            continue
        for nbr in hops.graph.neighbors(node):
            nbr = int(nbr)
            if nbr not in members:
                continue
            other = cells.get(nbr)
            if other is None or other == own:
                continue
            edges.add(edge_key(own, other))
    return edges
