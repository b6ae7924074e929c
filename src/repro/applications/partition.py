"""Surface partitioning: splitting a boundary into contiguous patches.

"Partition" is one of the graph tools the paper motivates its meshes with
(Sec. I-B).  Two partitioners are provided:

* :func:`cell_partition` -- the combinatorial Voronoi cells from the mesh
  construction themselves: one contiguous patch per landmark, which is
  the natural data-aggregation unit (each patch has a built-in head).
* :func:`balanced_partition` -- merges adjacent cells greedily until a
  requested patch count is reached, keeping patches contiguous and
  roughly size-balanced; useful when an application wants `p` work
  regions rather than one per landmark.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Set

from repro.network.graph import NetworkGraph
from repro.surface.hops import GroupHops
from repro.surface.landmarks import assign_voronoi_cells


@dataclass
class SurfacePartition:
    """A partition of one boundary group into contiguous patches.

    Attributes
    ----------
    patches:
        List of node-ID lists, each sorted; disjoint, covering the group.
    heads:
        One representative node per patch (the landmark for cell
        partitions, the smallest contained landmark after merging).
    """

    patches: List[List[int]]
    heads: List[int]

    @property
    def sizes(self) -> List[int]:
        """Patch sizes, aligned with ``patches``."""
        return [len(p) for p in self.patches]

    def patch_of(self) -> Dict[int, int]:
        """Node -> patch index lookup."""
        lookup: Dict[int, int] = {}
        for idx, patch in enumerate(self.patches):
            for node in patch:
                lookup[node] = idx
        return lookup


def cell_partition(
    graph: NetworkGraph,
    group: Sequence[int],
    landmarks: Sequence[int],
) -> SurfacePartition:
    """One patch per landmark: the mesh's combinatorial Voronoi cells."""
    cells = assign_voronoi_cells(GroupHops(graph, group), landmarks)
    by_landmark: Dict[int, List[int]] = {int(l): [] for l in landmarks}
    for node, owner in cells.items():
        by_landmark[owner].append(node)
    heads = sorted(by_landmark)
    return SurfacePartition(
        patches=[sorted(by_landmark[h]) for h in heads],
        heads=heads,
    )


def _patch_adjacency(
    graph: NetworkGraph, partition: SurfacePartition
) -> Dict[int, Set[int]]:
    """Which patches touch (share a one-hop boundary edge)."""
    lookup = partition.patch_of()
    adjacency: Dict[int, Set[int]] = {
        i: set() for i in range(len(partition.patches))
    }
    for node, patch in lookup.items():
        for nbr in graph.neighbors(node):
            other = lookup.get(int(nbr))
            if other is not None and other != patch:
                adjacency[patch].add(other)
                adjacency[other].add(patch)
    return adjacency


def balanced_partition(
    graph: NetworkGraph,
    group: Sequence[int],
    landmarks: Sequence[int],
    n_patches: int,
) -> SurfacePartition:
    """Merge adjacent Voronoi cells down to ``n_patches`` patches.

    Greedy: repeatedly merge the smallest patch into its smallest
    adjacent patch.  Patches stay contiguous because only adjacent
    patches merge.

    Raises
    ------
    ValueError
        If ``n_patches`` is not positive or exceeds the landmark count.
    """
    if n_patches < 1:
        raise ValueError("n_patches must be positive")
    base = cell_partition(graph, group, landmarks)
    if n_patches > len(base.patches):
        raise ValueError(
            f"cannot split {len(base.patches)} cells into {n_patches} patches"
        )
    patches: Dict[int, List[int]] = {i: list(p) for i, p in enumerate(base.patches)}
    heads: Dict[int, int] = {i: h for i, h in enumerate(base.heads)}
    adjacency = _patch_adjacency(graph, base)

    while len(patches) > n_patches:
        smallest = min(patches, key=lambda i: (len(patches[i]), i))
        neighbors = [n for n in adjacency[smallest] if n in patches]
        if not neighbors:
            # Disconnected remnant (cannot happen for one connected group,
            # guarded for safety): merge with the overall smallest other.
            neighbors = [i for i in patches if i != smallest]
            if not neighbors:
                break
        target = min(neighbors, key=lambda i: (len(patches[i]), i))
        patches[target].extend(patches.pop(smallest))
        heads[target] = min(heads[target], heads.pop(smallest))
        merged_neighbors = adjacency.pop(smallest)
        for other in merged_neighbors:
            adjacency[other].discard(smallest)
            if other != target and other in adjacency:
                adjacency[other].add(target)
                adjacency[target].add(other)
        adjacency[target].discard(target)

    order = sorted(patches, key=lambda i: heads[i])
    return SurfacePartition(
        patches=[sorted(patches[i]) for i in order],
        heads=[heads[i] for i in order],
    )
