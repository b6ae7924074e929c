"""Hole patching: closing residual open rings after triangulation.

The crossing-avoidance drop rule of Step IV is conservative, so the
triangulated mesh can retain a few *open* edges (edges with fewer than two
triangular faces) bounding small polygonal holes.  This pass finds cycles
made of open edges and triangulates each by inserting its hop-shortest
missing diagonal, repeating until every edge has two faces (or no further
cycle can be found).  No crossing is possible inside an open hole --
the face is empty by definition -- so the drop rule does not apply here.

This is a completion step the paper does not spell out; without it the
construction of Sec. III stalls a handful of faces short of the closed
2-manifold its Step V is meant to certify.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Optional, Set

from repro.surface.hops import GroupHops
from repro.surface.mesh import Edge, TriangularMesh, edge_key

#: Upper bound on patch rounds; each round adds one diagonal.
MAX_PATCH_ROUNDS = 256


#: Cycles longer than this are not treated as patchable face holes --
#: genuine un-triangulated polygons are small, and chording a long spurious
#: cycle degrades the mesh instead of closing it.
MAX_HOLE_CYCLE = 8


def _find_open_cycle(open_edges: List[Edge]) -> Optional[List[int]]:
    """The shortest simple cycle in the open-edge graph, if any.

    For every open edge ``(u, v)``, BFS for the shortest alternative
    ``u .. v`` path avoiding that edge; the edge plus the path is a cycle.
    The overall shortest cycle (ties broken lexicographically) is returned,
    provided it does not exceed ``MAX_HOLE_CYCLE`` vertices.  Cost is
    ``O(E^2)`` over the open edges only -- small by construction.
    """
    adjacency: Dict[int, Set[int]] = defaultdict(set)
    for u, v in open_edges:
        adjacency[u].add(v)
        adjacency[v].add(u)

    best: Optional[List[int]] = None
    for u, v in sorted(open_edges):
        # BFS from u to v without using edge (u, v) directly.
        parent: Dict[int, int] = {u: -1}
        queue = [u]
        found = False
        while queue and not found:
            node = queue.pop(0)
            for nxt in sorted(adjacency[node]):
                if node == u and nxt == v:
                    continue
                if nxt in parent:
                    continue
                parent[nxt] = node
                if nxt == v:
                    found = True
                    break
                queue.append(nxt)
        if not found:
            continue
        path = [v]
        while path[-1] != u:
            path.append(parent[path[-1]])
        cycle = list(reversed(path))  # u .. v; closing edge (v, u) implied
        if len(cycle) >= 3 and (best is None or len(cycle) < len(best)):
            best = cycle
            if len(best) == 3:
                break
    if best is not None and len(best) <= MAX_HOLE_CYCLE:
        return best
    return None


def patch_holes(mesh: TriangularMesh, hops: GroupHops) -> bool:
    """Insert diagonals until no cycle of open edges remains.

    Diagonal lengths are hop distances within the group
    (``hops.distance``).

    Returns
    -------
    bool
        True when the mesh ended with every edge on at least two faces
        (holes fully patched); False when open edges remain -- either a
        non-cyclic open structure (a genuinely broken region, e.g. a group
        too sparse to be a closed surface) or the round budget ran out.
    """
    for _ in range(MAX_PATCH_ROUNDS):
        counts = mesh.edge_face_counts()
        open_edges = sorted(e for e, c in counts.items() if c <= 1)
        if not open_edges:
            return True
        cycle = _find_open_cycle(open_edges)
        if cycle is None:
            return False
        size = len(cycle)
        best: Optional[tuple] = None  # (length, u, v)
        for a in range(size):
            for b in range(a + 2, size):
                if a == 0 and b == size - 1:
                    continue  # adjacent around the cycle
                u, v = cycle[a], cycle[b]
                if mesh.has_edge(u, v):
                    continue
                candidate = (hops.distance(u, v), *edge_key(u, v))
                if best is None or candidate < best:
                    best = candidate
        if best is None:
            # Cycle is a triangle already fully chorded; nothing to add.
            return False
        length, u, v = best
        mesh.add_edge(u, v, hop_length=length)
    return not any(c <= 1 for c in mesh.edge_face_counts().values())
