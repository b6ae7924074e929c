"""Step V: edge flips toward a 2-manifold mesh.

After Step IV an edge may still carry three triangular faces (Fig. 5:
edge AB with apex nodes C, D, E).  Such an edge is removed and replaced by
the two *shortest* edges among the apex pairs -- lengths measured in hops
between landmarks over the boundary subgraph, keeping the step
connectivity-only.  The transformation repeats until no edge has more than
two faces.

Two engineering details beyond the paper's description:

* Edges with four or more faces (possible in degenerate landmark layouts)
  are handled by the natural generalization -- remove the edge and connect
  its apex vertices with a minimum spanning tree under hop length, which
  for three apexes is exactly "the two shortest edges".
* A flip never (re-)introduces an edge that a previous flip removed.  Each
  iteration removes one edge and additions are bounded by the pairs never
  removed before, so termination is guaranteed rather than assumed.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Set, Tuple

from repro.surface.hops import GroupHops
from repro.surface.mesh import Edge, TriangularMesh, edge_key


def _apex_mst_edges(
    apexes: List[int], hop_length: Callable[[int, int], int]
) -> List[Edge]:
    """Shortest edges connecting the apex vertices (Prim's MST).

    For the paper's three-face case this returns exactly "the two shortest
    edges" among the three apex pairs: dropping the longest edge of a
    triangle is the same as its minimum spanning tree.
    """
    if len(apexes) < 2:
        return []
    remaining = set(apexes[1:])
    in_tree = {apexes[0]}
    chosen: List[Edge] = []
    while remaining:
        best: Optional[Tuple[int, int, int]] = None  # (length, u, v)
        for u in sorted(in_tree):
            for v in sorted(remaining):
                length = hop_length(u, v)
                cand = (length, u, v)
                if best is None or cand < best:
                    best = cand
        assert best is not None
        _, u, v = best
        chosen.append(edge_key(u, v))
        in_tree.add(v)
        remaining.discard(v)
    return chosen


def edge_flip(mesh: TriangularMesh, hops: GroupHops) -> TriangularMesh:
    """Apply edge flips until every edge has at most two triangular faces.

    Edge lengths are hop distances within the group (``hops.distance``).
    The mesh is modified in place and also returned.

    Raises
    ------
    RuntimeError
        If saturated edges remain when the iteration guard trips (cannot
        happen under the no-readd rule).
    """
    hop_length = hops.distance
    n_vertices = len(mesh.vertices)
    limit = len(mesh.edges) + n_vertices * n_vertices + 64
    removed: Set[Edge] = set()

    for _ in range(limit):
        saturated = mesh.edges_with_face_count(3)
        if not saturated:
            return mesh
        target = saturated[0]
        u, v = target
        adj = mesh.adjacency()
        apexes = sorted(adj[u] & adj[v])
        mesh.remove_edge(u, v)
        removed.add(target)
        for a, b in _apex_mst_edges(apexes, hop_length):
            key = edge_key(a, b)
            if key in removed or mesh.has_edge(a, b):
                continue
            mesh.add_edge(a, b, hop_length=hop_length(a, b))
    if mesh.edges_with_face_count(3):
        raise RuntimeError("edge flip did not converge within the iteration guard")
    return mesh
