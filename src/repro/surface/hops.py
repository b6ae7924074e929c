"""Hop distances and shortest paths inside one boundary group, memoized.

Steps I-V of the surface construction (Sec. III) all reason over hop
distances from landmarks within one boundary group: Voronoi cells (I),
CDM and completion paths (III, IV), candidate pairs (IV), and edge
lengths for flips and hole patches (V).  :class:`GroupHops` floods each
source at most once over the group and answers all of those queries from
the cached floods, so one landmark's BFS is shared by every step, every
landmark spacing tried, and every finalize round of
:class:`repro.surface.pipeline.SurfaceBuilder`.

:meth:`repro.network.graph.NetworkGraph.bfs_hops` and
:meth:`repro.network.graph.NetworkGraph.shortest_path` stay the reference
this memo is tested against.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set

from repro.network.graph import NetworkGraph


class GroupHops:
    """Per-group flood memo over the subgraph induced by ``group``.

    Attributes
    ----------
    graph:
        Full network connectivity.
    members:
        The group's node IDs; every flood and path stays inside them.
    """

    def __init__(self, graph: NetworkGraph, group: Iterable[int]):
        self.graph = graph
        self.members: Set[int] = set(int(g) for g in group)
        self._floods: Dict[int, Dict[int, int]] = {}

    def hops_from(self, source: int) -> Dict[int, int]:
        """``graph.bfs_hops([source], within=members)``, computed once.

        The dict keeps BFS discovery order; callers must not mutate it.
        """
        flood = self._floods.get(source)
        if flood is None:
            flood = self.graph.bfs_hops([source], within=self.members)
            self._floods[source] = flood
        return flood

    def distance(self, u: int, v: int) -> int:
        """Hop distance between ``u`` and ``v`` within the group.

        Read from whichever endpoint already has a cached flood (flooding
        ``u`` when neither does).  Unreachable pairs get the finite
        sentinel ``len(members) + 1`` so they sort after every real
        distance.
        """
        if u not in self._floods and v in self._floods:
            u, v = v, u
        return self.hops_from(u).get(v, len(self.members) + 1)

    def path(self, i: int, j: int) -> Optional[List[int]]:
        """``graph.shortest_path(i, j, within=members)`` from ``j``'s flood.

        FIFO BFS over ascending adjacency returns the lexicographically
        smallest shortest path read from the source, which is the walk
        that, from ``i``, always steps to the first in-group neighbour one
        hop closer to ``j``.  Returns None when ``j`` is unreachable.
        """
        to_j = self.hops_from(j)
        remaining = to_j.get(i)
        if remaining is None:
            return None
        path = [i]
        node = i
        while remaining:
            remaining -= 1
            for nbr in self.graph.neighbors(node).tolist():
                if to_j.get(nbr) == remaining:
                    node = nbr
                    break
            path.append(node)
        return path
