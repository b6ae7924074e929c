"""Step III: Combinatorial Delaunay Map (CDM).

A CDG edge between landmarks *i* and *j* survives into the CDM iff the
shortest boundary path from *i* to *j* satisfies two conditions (Sec. III):

1. every node on the path is associated with *i* or *j* only, and
2. the path visits *i*'s nodes first, then *j*'s, without interleaving.

Funke and Milosavljević proved the resulting graph planar in 2D; the paper
extends the construction to 3D boundary surfaces where it yields a locally
planarized graph.  Boundary nodes on an accepted path record that they lie
on a landmark shortest path -- Step IV's drop rule consults those marks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set

from repro.surface.hops import GroupHops
from repro.surface.mesh import Edge, edge_key


@dataclass
class CDMResult:
    """Output of the CDM construction.

    Attributes
    ----------
    edges:
        CDG edges that passed the path validity test.
    paths:
        Accepted edge -> the realizing shortest path (landmark endpoints
        included).
    on_path:
        Boundary nodes marked as lying on the shortest path between two
        connected landmarks (intermediate nodes of accepted paths).
    rejected:
        CDG edges that failed the test, for diagnostics.
    """

    edges: Set[Edge] = field(default_factory=set)
    paths: Dict[Edge, List[int]] = field(default_factory=dict)
    on_path: Set[int] = field(default_factory=set)
    rejected: Set[Edge] = field(default_factory=set)


def path_is_valid(path: List[int], cells: Dict[int, int], i: int, j: int) -> bool:
    """The two CDM acceptance conditions for a path from ``i`` to ``j``."""
    labels = [cells.get(node) for node in path]
    if any(label not in (i, j) for label in labels):
        return False
    # Non-interleaved: all i-cell nodes form a prefix, j-cell nodes a suffix.
    switched = False
    for label in labels:
        if label == j:
            switched = True
        elif switched:  # an i-cell node after the first j-cell node
            return False
    return True


def build_cdm(
    hops: GroupHops,
    cells: Dict[int, int],
    cdg_edges: Set[Edge],
) -> CDMResult:
    """Filter the CDG into the planar CDM via the path validity test.

    Shortest paths are computed within the boundary group only ("based on
    the identified boundary nodes").  Among equally short paths the
    lexicographically smallest one read from ``i`` wins, so both
    endpoints -- and the message-level implementation -- agree on the
    same path.
    """
    result = CDMResult()
    for i, j in sorted(cdg_edges):
        path = hops.path(i, j)
        if path is not None and path_is_valid(path, cells, i, j):
            key = edge_key(i, j)
            result.edges.add(key)
            result.paths[key] = path
            result.on_path.update(path[1:-1])
        else:
            result.rejected.add(edge_key(i, j))
    return result
