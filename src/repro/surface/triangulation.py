"""Step IV: triangulation completion.

The CDM is planar but may contain faces with more than three sides
(Fig. 1(e)).  Landmarks therefore attempt to connect to nearby landmarks
they are not yet connected to, by sending a connection packet along the
shortest boundary path; a packet is dropped when it would produce a
crossing edge, and surviving packets add a virtual edge (whose path nodes
are marked in turn).

Three implementation refinements over the paper's one-paragraph
description, all needed to reach its stated goal ("adds all possible
virtual edges to divide polygons into triangles"):

* **Candidate set.**  The paper sends packets only between CDG-adjacent
  landmarks.  Hop-based Voronoi cells are coarse, so polygon diagonals are
  frequently not CDG-adjacent and the polygons of Fig. 1(e) could never be
  split.  Candidates here are all landmark pairs within ``candidate_radius``
  hops (default ``2k``), ordered by (hop distance, IDs) so short diagonals
  win.
* **Endpoint-aware crossing test.**  A marked intermediate node only blocks
  a packet when the mark belongs to an edge between two landmarks *both*
  different from the packet's endpoints -- edges sharing an endpoint cannot
  cross.  Blocking on any mark (the literal reading) rejects nearly every
  diagonal, because accepted CDM paths quickly mark most boundary nodes.
* **Dilated marks.**  Marks extend to the one-hop boundary neighbors of
  path nodes.  Shortest paths between nearby landmarks are only a few nodes
  long, so genuinely crossing edges often have node-disjoint paths; the
  one-hop dilation is what makes the mark test a reliable crossing proxy.

Additionally a packet routed *through another landmark* is always dropped:
the resulting edge would pass through a mesh vertex.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Set, Tuple

import numpy as np

from repro.surface.cdm import CDMResult
from repro.surface.hops import GroupHops
from repro.surface.mesh import Edge, edge_key

#: node -> set of landmark edges whose realizing path covers (or neighbors)
#: the node.
MarkMap = Dict[int, Set[Edge]]


def _mark_path(marks: MarkMap, edge: Edge, path: List[int], hops: GroupHops) -> None:
    """Record that ``path`` realizes ``edge``, with one-hop dilation."""
    indptr, indices = hops.indptr, hops.indices
    dilated = set(path[1:-1])
    for column in hops.columns(path[1:-1]).tolist():
        dilated.update(hops.nodes[indices[indptr[column] : indptr[column + 1]]].tolist())
    for node in sorted(dilated):
        marks[node].add(edge)


def _blocked(marks: MarkMap, path: List[int], i: int, j: int) -> bool:
    """Whether a connection packet from ``i`` to ``j`` must be dropped."""
    for node in path[1:-1]:
        for a, b in marks[node]:
            if a not in (i, j) and b not in (i, j):
                return True
    return False


def candidate_pairs(
    hops: GroupHops, landmarks: List[int], candidate_radius: int
) -> Dict[Edge, int]:
    """Landmark pairs within ``candidate_radius`` hops, with hop distances.

    One mask over the landmark x landmark block of the hop rows; pairs
    come in ascending ``(i, j)`` order.
    """
    ordered = sorted(set(int(l) for l in landmarks) & hops.members)
    if not ordered:
        return {}
    columns = hops.columns(ordered)
    block = np.stack([hops.row(landmark)[columns] for landmark in ordered])
    upper = np.triu(np.ones(block.shape, dtype=bool), k=1)
    rows, cols = np.nonzero(
        upper & (block <= candidate_radius) & (block != hops.sentinel)
    )
    return {
        (ordered[a], ordered[b]): int(block[a, b])
        for a, b in zip(rows.tolist(), cols.tolist())
    }


def complete_triangulation(
    hops: GroupHops,
    landmarks: List[int],
    cdm: CDMResult,
    *,
    candidate_radius: int,
) -> Tuple[Set[Edge], Dict[Edge, List[int]]]:
    """Add non-crossing virtual edges until no more can be placed.

    Parameters
    ----------
    hops:
        Hop rows of the boundary group under construction.
    landmarks:
        Elected landmarks of the group.
    cdm:
        Step III output: already-connected edges and their paths.
    candidate_radius:
        Maximum hop distance between landmark pairs considered for new
        edges; the pipeline passes ``2k``.

    Returns
    -------
    (edges, paths)
        The augmented edge set and path map.
    """
    landmark_set = set(landmarks)
    edges: Set[Edge] = set(cdm.edges)
    paths: Dict[Edge, List[int]] = dict(cdm.paths)

    marks: MarkMap = defaultdict(set)
    for edge, path in cdm.paths.items():
        _mark_path(marks, edge, path, hops)

    pairs = candidate_pairs(hops, landmarks, candidate_radius)
    order = sorted(
        (key for key in pairs if key not in edges),
        key=lambda key: (pairs[key], key),
    )
    for i, j in order:
        path = hops.path(i, j)
        if path is None:
            continue
        if any(node in landmark_set for node in path[1:-1]):
            continue
        if _blocked(marks, path, i, j):
            continue
        key = edge_key(i, j)
        edges.add(key)
        paths[key] = path
        _mark_path(marks, key, path, hops)
    return edges, paths
